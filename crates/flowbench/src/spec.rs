//! The benchmark's fixed vocabulary: workload names, metric names with
//! their units, and the frozen input sizes. `BENCHMARK.json` at the repo
//! root declares the same names; the schema test keeps the two in step.

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Name as printed, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// The seven workloads, in `run --all` order.
pub const WORKLOADS: [&str; 7] = [
    "wordcount",
    "grep",
    "terasort",
    "kmeans",
    "graph",
    "nexmark",
    "serve-mix",
];

/// Engine parallelism and partitions are `min(nproc, P_CAP)`.
pub const P_CAP: usize = 4;

/// What a user of the system sees; every workload reports every one (from
/// the untraced run).
pub const END_TO_END: &[MetricSpec] = &[
    m("setup_s", "s"),
    m("staged_rec_per_s", "records/s"),
    m("pipelined_rec_per_s", "records/s"),
    m("jobs_per_s", "jobs/s"),
    m("job_latency_p50_ms", "ms"),
    m("peak_rss_mb", "MiB"),
];

/// Single-layer metrics (from the traced run). A layer a workload never
/// enters reads the timer floor for a time and 0 for anything else.
pub const PER_LAYER: &[MetricSpec] = &[
    m("datagen.gen_s", "s"),
    m("columnar.batch_decode_s", "s"),
    m("columnar.filter_s", "s"),
    m("columnar.route_s", "s"),
    m("columnar.merge_s", "s"),
    m("columnar.radix_sort_s", "s"),
    m("columnar.assign_s", "s"),
    m("columnar.checksum_mb_per_s", "MiB/s"),
    m("shuffle.seal_s", "s"),
    m("shuffle.verify_s", "s"),
    m("shuffle.exchange_s", "s"),
    m("shuffle.records", "count"),
    m("shuffle.bytes", "bytes"),
    m("shuffle.batches_sealed", "count"),
    m("shuffle.combine_ratio", "ratio"),
    m("shuffle.partition_skew", "ratio"),
    m("iterate.graph_build_s", "s"),
    m("iterate.supersteps", "count"),
    m("iterate.messages_combined", "count"),
    m("iterate.pagerank_staged_s", "s"),
    m("iterate.pagerank_pipelined_s", "s"),
    m("iterate.connected_staged_s", "s"),
    m("iterate.connected_pipelined_s", "s"),
    m("staged.job_s_p50", "s"),
    m("staged.job_s_tail", "s"),
    m("staged.job_samples", "count"),
    m("staged.tasks_launched", "count"),
    m("staged.cache_hits", "count"),
    m("staged.p1_rec_per_s", "records/s"),
    m("staged.parallel_efficiency", "ratio"),
    m("pipelined.job_s_p50", "s"),
    m("pipelined.job_s_tail", "s"),
    m("pipelined.job_samples", "count"),
    m("pipelined.backpressure_waits", "count"),
    m("pipelined.p1_rec_per_s", "records/s"),
    m("pipelined.parallel_efficiency", "ratio"),
    m("engine.unattributed_s", "s"),
    m("streaming.operator_fold_s", "s"),
    m("streaming.window_fire_s", "s"),
    m("streaming.snapshot_s", "s"),
    m("streaming.checkpoints", "count"),
    m("streaming.snapshot_bytes", "bytes"),
    m("streaming.stream_batches", "count"),
    m("streaming.windows_emitted", "count"),
    m("streaming.late_dropped", "count"),
    m("streaming.sparse_ckpt_rec_per_s", "records/s"),
    m("pool.dispatch_us_per_task", "us"),
    m("pool.tasks_stolen", "count"),
    m("pool.queue_wait_ms", "ms"),
    m("fragcache.hits", "count"),
    m("fragcache.misses", "count"),
    m("fragcache.hit_ratio", "ratio"),
    m("fragcache.evictions", "count"),
    m("fragcache.bytes_used", "bytes"),
    m("serve.submit_us_p50", "us"),
    m("serve.queue_wait_ms_p50", "ms"),
    m("serve.queue_wait_ms_p95", "ms"),
    m("serve.run_ms_p50", "ms"),
    m("serve.job_latency_p95_ms", "ms"),
    m("serve.tenant_wait_ratio", "ratio"),
    m("serve.jobs_shed", "count"),
    m("serve.job_retries", "count"),
    m("serve.generator_lag_ms_p95", "ms"),
    m("serve.backlog_growing", "bool"),
    m("trace.overhead_share", "ratio"),
    m("bench.calib_drift", "ratio"),
    m("bench.retries", "count"),
    m("bench.parallelism", "count"),
];

/// Seconds per unit, for units that are times.
pub fn time_unit_seconds(unit: &str) -> Option<f64> {
    match unit {
        "s" => Some(1.0),
        "ms" => Some(1e-3),
        "us" => Some(1e-6),
        _ => None,
    }
}

/// Input sizes. [`Scale::FULL`] is frozen: a later change that claims a
/// gain measures parent and change at exactly these sizes. [`Scale::TINY`]
/// exists for the schema test only and its numbers mean nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// `wordcount`: Zipf(1.05) lines over a 20 k vocabulary.
    pub wc_lines: usize,
    /// `grep`: lines, needle selectivity 5 %.
    pub grep_lines: usize,
    /// `terasort`: 100-byte TeraGen records.
    pub ts_records: usize,
    /// `kmeans`: 2-d points.
    pub km_points: usize,
    /// `kmeans`: rounds.
    pub km_rounds: u32,
    /// `graph`: R-MAT scale (2^scale vertices).
    pub rmat_scale: u32,
    /// `graph`: edges.
    pub graph_edges: usize,
    /// `graph`: PageRank supersteps (Connected Components runs to fixpoint).
    pub pr_rounds: u32,
    /// `nexmark`: q3 events. Kept small on purpose: snapshot cost grows
    /// with the stream.
    pub q3_events: usize,
    /// `nexmark`: q6 events.
    pub q6_events: usize,
    /// `serve-mix`: rows per job input.
    pub mix_rows: usize,
    /// `serve-mix`: distinct input seeds per workload.
    pub mix_inputs: usize,
    /// `serve-mix` phase A: jobs admitted at t0 per second of phase length.
    pub mix_backlog_jobs_per_s: f64,
    /// `serve-mix` phase B: open-loop submission rate, jobs per second
    /// (half the phase-A rate measured when the benchmark was defined).
    pub mix_open_rate: f64,
    /// Timed repetitions per engine a window needs at least.
    pub min_reps: usize,
    /// Repetitions of each layer probe.
    pub probe_reps: usize,
    /// Bytes the checksum probe digests.
    pub checksum_bytes: usize,
    /// Empty tasks the pool-dispatch probe submits.
    pub pool_tasks: usize,
    /// Loop iterations per chunk of the ambient-noise sentinel (3 M is
    /// ≈ 7.5 ms on the reference box).
    pub calib_iters: u64,
}

impl Scale {
    /// The benchmark's frozen sizes.
    pub const FULL: Scale = Scale {
        wc_lines: 300_000,
        grep_lines: 600_000,
        ts_records: 400_000,
        km_points: 1_600_000,
        km_rounds: 20,
        rmat_scale: 14,
        graph_edges: 300_000,
        pr_rounds: 10,
        q3_events: 100_000,
        q6_events: 500_000,
        mix_rows: 10_000,
        mix_inputs: 32,
        mix_backlog_jobs_per_s: 300.0,
        mix_open_rate: 160.0,
        min_reps: 5,
        probe_reps: 5,
        checksum_bytes: 64 << 20,
        pool_tasks: 10_000,
        calib_iters: 3_000_000,
    };

    /// Schema-test sizes: every code path, no meaningful timing.
    pub const TINY: Scale = Scale {
        wc_lines: 600,
        grep_lines: 600,
        ts_records: 600,
        km_points: 600,
        km_rounds: 2,
        rmat_scale: 6,
        graph_edges: 200,
        pr_rounds: 2,
        q3_events: 400,
        q6_events: 400,
        mix_rows: 120,
        mix_inputs: 4,
        mix_backlog_jobs_per_s: 400.0,
        mix_open_rate: 400.0,
        min_reps: 1,
        probe_reps: 1,
        checksum_bytes: 1 << 16,
        pool_tasks: 64,
        calib_iters: 20_000,
    };
}
