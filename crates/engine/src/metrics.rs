//! Engine-internal counters, collected lock-free.
//!
//! Real-engine runs feed two consumers: correctness tests (both engines must
//! produce identical results) and the calibration of the simulator's cost
//! model. The counters here are the calibration inputs: how many records
//! crossed a shuffle, how many bytes spilled, how often lineage was
//! recomputed, how much combine reduced the data.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Shared run metrics. Cheap to clone (Arc inside).
#[derive(Debug, Clone, Default)]
pub struct EngineMetrics {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    records_read: AtomicU64,
    records_shuffled: AtomicU64,
    bytes_shuffled: AtomicU64,
    bytes_spilled: AtomicU64,
    spill_events: AtomicU64,
    combine_input: AtomicU64,
    combine_output: AtomicU64,
    compute_calls: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    tasks_launched: AtomicU64,
    iterations_run: AtomicU64,
    backpressure_waits: AtomicU64,
    messages_combined: AtomicU64,
    batches_processed: AtomicU64,
    rows_selected: AtomicU64,
    points_assigned_vectorized: AtomicU64,
    radix_sort_runs: AtomicU64,
    stream_batches: AtomicU64,
    tasks_stolen: AtomicU64,
    queue_wait_micros: AtomicU64,
    queue_wait_tasks: AtomicU64,
    fragment_cache_hits: AtomicU64,
    fragment_cache_evictions: AtomicU64,
    // Streaming section (engine::streaming): event-time behaviour.
    watermark_lag_events: AtomicU64,
    windows_emitted: AtomicU64,
    late_events_dropped: AtomicU64,
    // Recovery section (engine::faults): what failure injection cost the run.
    injected_failures: AtomicU64,
    injected_stragglers: AtomicU64,
    task_retries: AtomicU64,
    partitions_recomputed: AtomicU64,
    region_restarts: AtomicU64,
    checkpoints_taken: AtomicU64,
    checkpoint_bytes: AtomicU64,
    speculative_launched: AtomicU64,
    speculative_wins: AtomicU64,
    memory_pressure_events: AtomicU64,
    pool_exhausted: AtomicU64,
    tasks_cancelled: AtomicU64,
    batches_checksummed: AtomicU64,
    corruptions_detected: AtomicU64,
    integrity_recomputes: AtomicU64,
    checkpoints_rejected: AtomicU64,
    stream_checkpoints_restored: AtomicU64,
}

/// Point-in-time copy of *every* counter, serializable so tune/chaos/bench
/// reports can embed the raw numbers behind a run in their JSON artifacts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Records ingested from sources.
    pub records_read: u64,
    /// Records that crossed a shuffle (post-combine).
    pub records_shuffled: u64,
    /// Bytes that crossed a shuffle.
    pub bytes_shuffled: u64,
    /// Bytes written by sort-buffer spills.
    pub bytes_spilled: u64,
    /// Individual spill (sorted-run flush) events.
    pub spill_events: u64,
    /// Records entering map-side combine.
    pub combine_input: u64,
    /// Records leaving map-side combine.
    pub combine_output: u64,
    /// Partition compute invocations (lineage or pipeline).
    pub compute_calls: u64,
    /// Block-cache hits.
    pub cache_hits: u64,
    /// Block-cache misses.
    pub cache_misses: u64,
    /// Tasks launched.
    pub tasks_launched: u64,
    /// Iterations driven (iterative workloads).
    pub iterations_run: u64,
    /// Pipelined sends that found the bounded channel full and had to
    /// block — the backpressure signal the network-buffer knob relieves.
    pub backpressure_waits: u64,
    /// Iteration messages eliminated by sender-side combining before they
    /// crossed a channel (raw messages − combined messages); `default`
    /// keeps pre-existing JSON artifacts parseable.
    #[serde(default)]
    pub messages_combined: u64,
    /// Column batches pushed through a vectorized kernel or a
    /// batch-granularity exchange; zero on the record-at-a-time path, so
    /// tests can assert which path actually executed. `default` keeps
    /// pre-existing JSON artifacts parseable.
    #[serde(default)]
    pub batches_processed: u64,
    /// Rows that passed a vectorized selection (filter/hash-agg probe) —
    /// the batch-path sibling of `records_read`; `default` keeps
    /// pre-existing JSON artifacts parseable.
    #[serde(default)]
    pub rows_selected: u64,
    /// Points assigned to a centroid by the vectorized K-Means
    /// `assign_accumulate` kernel (flat dim-major scan), so tests can pin
    /// that the kernel ran; `default` keeps BENCH_PR6/PR7 artifacts
    /// parseable.
    #[serde(default)]
    pub points_assigned_vectorized: u64,
    /// Sorted runs produced by the LSD `radix_sort_u64` kernel instead of
    /// a comparison sort (TeraSort merge, u64-keyed sort-combine runs);
    /// `default` keeps BENCH_PR6/PR7 artifacts parseable.
    #[serde(default)]
    pub radix_sort_runs: u64,
    /// Event slabs carried between streaming source/task/sink in place of
    /// per-event channel sends — zero on the per-event runtime; `default`
    /// keeps BENCH_PR6/PR7 artifacts parseable.
    #[serde(default)]
    pub stream_batches: u64,
    /// Stage tasks a shared-pool worker took from another worker's
    /// deque; `default` keeps artifacts written before it parseable.
    #[serde(default)]
    pub tasks_stolen: u64,
    /// Microseconds stage tasks spent queued in the shared pool before
    /// execution began; `default` keeps pre-existing artifacts
    /// parseable.
    #[serde(default)]
    pub queue_wait_micros: u64,
    /// Stage tasks whose queue wait is accumulated in
    /// `queue_wait_micros` (denominator for a mean wait); `default`
    /// keeps pre-existing artifacts parseable.
    #[serde(default)]
    pub queue_wait_tasks: u64,
    /// Cross-job fragment-cache reuses that passed checksum
    /// re-verification (distinct from `cache_hits`, the staged engine's
    /// block cache); `default` keeps pre-existing artifacts parseable.
    #[serde(default)]
    pub fragment_cache_hits: u64,
    /// Fragments this job's inserts evicted from the cross-job cache;
    /// `default` keeps pre-existing artifacts parseable.
    #[serde(default)]
    pub fragment_cache_evictions: u64,
    /// Streaming events that arrived behind their task's event-time
    /// frontier (out-of-order but not yet late); `default` keeps
    /// pre-existing artifacts parseable.
    #[serde(default)]
    pub watermark_lag_events: u64,
    /// Window results fired by watermark advances across all streaming
    /// tasks; `default` keeps pre-existing artifacts parseable.
    #[serde(default)]
    pub windows_emitted: u64,
    /// Streaming events dropped because they arrived behind the
    /// watermark (older than the allowance permits); `default` keeps
    /// pre-existing artifacts parseable.
    #[serde(default)]
    pub late_events_dropped: u64,
    /// Recovery counters (fault injection and its repair costs).
    pub recovery: RecoverySnapshot,
}

/// Point-in-time copy of the recovery counters, the per-run payload of the
/// `repro chaos` comparison axis (recovery cost under identical injected
/// faults).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoverySnapshot {
    /// Task kills and memory-pressure aborts the fault plan injected.
    pub injected_failures: u64,
    /// Straggler slowdowns the fault plan injected.
    pub injected_stragglers: u64,
    /// Failed attempts that were retried (both engines).
    pub task_retries: u64,
    /// Partitions recomputed from lineage (staged engine).
    pub partitions_recomputed: u64,
    /// Pipelined regions restarted from a checkpoint (pipelined engine).
    pub region_restarts: u64,
    /// Aligned checkpoints completed.
    pub checkpoints_taken: u64,
    /// Cumulative bytes snapshotted across all checkpoints.
    pub checkpoint_bytes: u64,
    /// Speculative backup attempts launched against stragglers.
    pub speculative_launched: u64,
    /// Backup attempts that beat the straggling primary.
    pub speculative_wins: u64,
    /// Injected memory-pressure aborts (subset of `injected_failures`).
    pub memory_pressure_events: u64,
    /// Buffer-pool exhaustion events that forced an early merge-spill.
    pub pool_exhausted: u64,
    /// Tasks torn down by a job-level cancel (deadline or explicit);
    /// `default` keeps pre-existing JSON artifacts parseable.
    #[serde(default)]
    pub tasks_cancelled: u64,
    /// Batches digested at a shuffle-write, checkpoint store or source
    /// seal; `default` keeps pre-existing JSON artifacts parseable.
    #[serde(default)]
    pub batches_checksummed: u64,
    /// Verifications that failed — a shuffled batch, checkpoint snapshot
    /// or sealed source batch whose digest no longer matched; `default`
    /// keeps pre-existing JSON artifacts parseable.
    #[serde(default)]
    pub corruptions_detected: u64,
    /// Poisoned-partition recomputes the staged engine ran (and retries
    /// either engine spent) answering a detected corruption; `default`
    /// keeps pre-existing JSON artifacts parseable.
    #[serde(default)]
    pub integrity_recomputes: u64,
    /// Checkpoint snapshots the pipelined engine discarded as
    /// unverifiable before restarting from an older verified one;
    /// `default` keeps pre-existing JSON artifacts parseable.
    #[serde(default)]
    pub checkpoints_rejected: u64,
    /// Streaming tasks restored from a digest-verified checkpoint
    /// snapshot after a region restart; `default` keeps pre-existing
    /// JSON artifacts parseable.
    #[serde(default)]
    pub stream_checkpoints_restored: u64,
}

macro_rules! counter_api {
    ($($field:ident => $add:ident, $get:ident);* $(;)?) => {
        $(
            /// Adds to the counter.
            pub fn $add(&self, n: u64) {
                self.inner.$field.fetch_add(n, Ordering::Relaxed);
            }
            /// Reads the counter.
            pub fn $get(&self) -> u64 {
                self.inner.$field.load(Ordering::Relaxed)
            }
        )*
    };
}

impl EngineMetrics {
    /// Creates a fresh metrics handle.
    pub fn new() -> Self {
        Self::default()
    }

    counter_api! {
        records_read => add_records_read, records_read;
        records_shuffled => add_records_shuffled, records_shuffled;
        bytes_shuffled => add_bytes_shuffled, bytes_shuffled;
        bytes_spilled => add_bytes_spilled, bytes_spilled;
        spill_events => add_spill_events, spill_events;
        combine_input => add_combine_input, combine_input;
        combine_output => add_combine_output, combine_output;
        compute_calls => add_compute_calls, compute_calls;
        cache_hits => add_cache_hits, cache_hits;
        cache_misses => add_cache_misses, cache_misses;
        tasks_launched => add_tasks_launched, tasks_launched;
        iterations_run => add_iterations_run, iterations_run;
        backpressure_waits => add_backpressure_waits, backpressure_waits;
        messages_combined => add_messages_combined, messages_combined;
        batches_processed => add_batches_processed, batches_processed;
        rows_selected => add_rows_selected, rows_selected;
        points_assigned_vectorized => add_points_assigned_vectorized, points_assigned_vectorized;
        radix_sort_runs => add_radix_sort_runs, radix_sort_runs;
        stream_batches => add_stream_batches, stream_batches;
        tasks_stolen => add_tasks_stolen, tasks_stolen;
        queue_wait_micros => add_queue_wait_micros, queue_wait_micros;
        queue_wait_tasks => add_queue_wait_tasks, queue_wait_tasks;
        fragment_cache_hits => add_fragment_cache_hits, fragment_cache_hits;
        fragment_cache_evictions => add_fragment_cache_evictions, fragment_cache_evictions;
        watermark_lag_events => add_watermark_lag_events, watermark_lag_events;
        windows_emitted => add_windows_emitted, windows_emitted;
        late_events_dropped => add_late_events_dropped, late_events_dropped;
        injected_failures => add_injected_failures, injected_failures;
        injected_stragglers => add_injected_stragglers, injected_stragglers;
        task_retries => add_task_retries, task_retries;
        partitions_recomputed => add_partitions_recomputed, partitions_recomputed;
        region_restarts => add_region_restarts, region_restarts;
        checkpoints_taken => add_checkpoints_taken, checkpoints_taken;
        checkpoint_bytes => add_checkpoint_bytes, checkpoint_bytes;
        speculative_launched => add_speculative_launched, speculative_launched;
        speculative_wins => add_speculative_wins, speculative_wins;
        memory_pressure_events => add_memory_pressure_events, memory_pressure_events;
        pool_exhausted => add_pool_exhausted, pool_exhausted;
        tasks_cancelled => add_tasks_cancelled, tasks_cancelled;
        batches_checksummed => add_batches_checksummed, batches_checksummed;
        corruptions_detected => add_corruptions_detected, corruptions_detected;
        integrity_recomputes => add_integrity_recomputes, integrity_recomputes;
        checkpoints_rejected => add_checkpoints_rejected, checkpoints_rejected;
        stream_checkpoints_restored => add_stream_checkpoints_restored, stream_checkpoints_restored;
    }

    /// Copies every counter out as one serializable struct.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            records_read: self.records_read(),
            records_shuffled: self.records_shuffled(),
            bytes_shuffled: self.bytes_shuffled(),
            bytes_spilled: self.bytes_spilled(),
            spill_events: self.spill_events(),
            combine_input: self.combine_input(),
            combine_output: self.combine_output(),
            compute_calls: self.compute_calls(),
            cache_hits: self.cache_hits(),
            cache_misses: self.cache_misses(),
            tasks_launched: self.tasks_launched(),
            iterations_run: self.iterations_run(),
            backpressure_waits: self.backpressure_waits(),
            messages_combined: self.messages_combined(),
            batches_processed: self.batches_processed(),
            rows_selected: self.rows_selected(),
            points_assigned_vectorized: self.points_assigned_vectorized(),
            radix_sort_runs: self.radix_sort_runs(),
            stream_batches: self.stream_batches(),
            tasks_stolen: self.tasks_stolen(),
            queue_wait_micros: self.queue_wait_micros(),
            queue_wait_tasks: self.queue_wait_tasks(),
            fragment_cache_hits: self.fragment_cache_hits(),
            fragment_cache_evictions: self.fragment_cache_evictions(),
            watermark_lag_events: self.watermark_lag_events(),
            windows_emitted: self.windows_emitted(),
            late_events_dropped: self.late_events_dropped(),
            recovery: self.recovery(),
        }
    }

    /// Copies the recovery counters out as one struct.
    pub fn recovery(&self) -> RecoverySnapshot {
        RecoverySnapshot {
            injected_failures: self.injected_failures(),
            injected_stragglers: self.injected_stragglers(),
            task_retries: self.task_retries(),
            partitions_recomputed: self.partitions_recomputed(),
            region_restarts: self.region_restarts(),
            checkpoints_taken: self.checkpoints_taken(),
            checkpoint_bytes: self.checkpoint_bytes(),
            speculative_launched: self.speculative_launched(),
            speculative_wins: self.speculative_wins(),
            memory_pressure_events: self.memory_pressure_events(),
            pool_exhausted: self.pool_exhausted(),
            tasks_cancelled: self.tasks_cancelled(),
            batches_checksummed: self.batches_checksummed(),
            corruptions_detected: self.corruptions_detected(),
            integrity_recomputes: self.integrity_recomputes(),
            checkpoints_rejected: self.checkpoints_rejected(),
            stream_checkpoints_restored: self.stream_checkpoints_restored(),
        }
    }

    /// Map-side combine effectiveness: output/input record ratio, 1.0 when
    /// no combining happened.
    pub fn combine_ratio(&self) -> f64 {
        let input = self.combine_input();
        if input == 0 {
            1.0
        } else {
            self.combine_output() as f64 / input as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = EngineMetrics::new();
        m.add_records_shuffled(10);
        m.add_records_shuffled(5);
        assert_eq!(m.records_shuffled(), 15);
        assert_eq!(m.bytes_spilled(), 0);
    }

    #[test]
    fn clone_shares_state() {
        let m = EngineMetrics::new();
        let m2 = m.clone();
        m2.add_tasks_launched(3);
        assert_eq!(m.tasks_launched(), 3);
    }

    #[test]
    fn combine_ratio_defaults_to_one() {
        let m = EngineMetrics::new();
        assert_eq!(m.combine_ratio(), 1.0);
        m.add_combine_input(100);
        m.add_combine_output(10);
        assert!((m.combine_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = EngineMetrics::new();
        m.add_records_shuffled(12);
        m.add_backpressure_waits(3);
        m.add_region_restarts(2);
        let snap = m.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.records_shuffled, 12);
        assert_eq!(back.backpressure_waits, 3);
        assert_eq!(back.recovery.region_restarts, 2);
    }

    #[test]
    fn old_recovery_json_without_integrity_fields_still_parses() {
        // A pre-integrity artifact: none of the four new counters present.
        let old = r#"{
            "injected_failures": 2, "injected_stragglers": 1,
            "task_retries": 3, "partitions_recomputed": 2,
            "region_restarts": 0, "checkpoints_taken": 4,
            "checkpoint_bytes": 512, "speculative_launched": 1,
            "speculative_wins": 1, "memory_pressure_events": 0,
            "pool_exhausted": 0
        }"#;
        let back: RecoverySnapshot = serde_json::from_str(old).unwrap();
        assert_eq!(back.task_retries, 3);
        assert_eq!(back.batches_checksummed, 0);
        assert_eq!(back.corruptions_detected, 0);
        assert_eq!(back.integrity_recomputes, 0);
        assert_eq!(back.checkpoints_rejected, 0);
    }

    #[test]
    fn old_snapshot_json_without_sched_fields_still_parses() {
        // A BENCH_PR6/PR7-era snapshot: none of the five sched counters
        // present. Field-by-field round trip via a modern snapshot with
        // the sched counters zeroed.
        let m = EngineMetrics::new();
        m.add_records_shuffled(7);
        let snap = m.snapshot();
        let mut json = serde_json::to_string(&snap).unwrap();
        for gone in [
            "\"tasks_stolen\":0,",
            "\"queue_wait_micros\":0,",
            "\"queue_wait_tasks\":0,",
            "\"fragment_cache_hits\":0,",
            "\"fragment_cache_evictions\":0,",
        ] {
            assert!(json.contains(gone), "{json}");
            json = json.replace(gone, "");
        }
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.tasks_stolen, 0);
    }

    #[test]
    fn old_snapshot_json_without_columnar_hotpath_fields_still_parses() {
        // A BENCH_PR6/PR7-era snapshot: none of the three PR 10 hot-path
        // counters present.
        let m = EngineMetrics::new();
        m.add_batches_processed(4);
        let snap = m.snapshot();
        let mut json = serde_json::to_string(&snap).unwrap();
        for gone in [
            "\"points_assigned_vectorized\":0,",
            "\"radix_sort_runs\":0,",
            "\"stream_batches\":0,",
        ] {
            assert!(json.contains(gone), "{json}");
            json = json.replace(gone, "");
        }
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.points_assigned_vectorized, 0);
        assert_eq!(back.radix_sort_runs, 0);
        assert_eq!(back.stream_batches, 0);
    }

    #[test]
    fn concurrent_updates_are_consistent() {
        let m = EngineMetrics::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.add_compute_calls(1);
                    }
                });
            }
        });
        assert_eq!(m.compute_calls(), 8000);
    }
}
