//! `repro soak --mix-concurrent N`: the multi-tenant scheduling bench.
//!
//! Drives hundreds of in-flight jobs through [`flowmark_serve::JobService`]
//! twice with identical workloads — the Word Count, Grep and TeraSort
//! [`Cell`]s the chaos drill runs, with their seeds and oracles:
//!
//! * **baseline** — FIFO admission (one unbounded tenant) and no
//!   cross-job reuse;
//! * **fair** — deficit-round-robin admission across seeded tenants and
//!   the checksum-verified cross-job fragment cache charged against the
//!   service's own memory budget.
//!
//! Both passes run their stage tasks on the same shared work-stealing
//! core pool, so the speedup measures admission and reuse alone.
//!
//! Every completion is oracle-verified in both passes; the report gates
//! on throughput (`jobs/sec` speedup), on at least one task steal, and
//! on at least one checksum-verified fragment-cache hit — so the shared
//! pool and the cache provably fired, not just compiled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use flowmark_core::config::{EngineConfig, FairShareConfig, Framework, ServiceConfig, TenantSpec};
use flowmark_core::stats::percentile;
use flowmark_engine::{FragmentHandle, Setup};
use flowmark_sched::{FragmentCache, FragmentKey};
use flowmark_serve::{HealthSnapshot, JobRequest, JobService, Resolution};
use flowmark_workloads::cell::{Cell, Sizes};
use flowmark_workloads::Workload;
use serde::{Deserialize, Serialize};

use crate::drill::ledger_violations;

/// The three mixed workloads. Word Count and TeraSort route through the
/// batch exchange and are fragment-cacheable; Grep is pure scheduling
/// load with nothing to cache.
const WORKLOADS: [Workload; 3] = [Workload::WordCount, Workload::Grep, Workload::TeraSort];

/// FNV-1a, used as the plan-prefix fingerprint of a fragment key.
fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Fragments are engine-local: both engines produce the same logical
/// rows at the exchange, but the key must not alias across runtimes.
fn engine_tag(engine: Framework) -> u64 {
    match engine {
        Framework::Spark => 0x5354_4147_4544, // "STAGED"
        Framework::Flink => 0x5049_5045_4c4e, // "PIPELN"
    }
}

/// Input sizes and concurrency for one mix-concurrent run.
#[derive(Debug, Clone, Copy)]
pub struct MixScale {
    /// Jobs submitted per pass (all admitted up front, so also the
    /// in-flight high-water mark).
    pub jobs: usize,
    /// Seeded tenants in the fair pass.
    pub tenants: u32,
    /// Input sizes (Word Count / Grep lines and TeraSort records are
    /// used).
    pub sizes: Sizes,
    /// Engine parallelism inside each job.
    pub partitions: usize,
    /// Service worker threads draining the queue.
    pub workers: usize,
}

impl MixScale {
    /// CLI scale at a given job count (the `--mix-concurrent N` value).
    pub fn full(jobs: usize) -> Self {
        Self {
            jobs,
            tenants: 4,
            sizes: Sizes {
                lines: 8_000,
                ts_records: 8_000,
                points: 0,
                edges: 0,
                rounds: 0,
            },
            partitions: 4,
            workers: 8,
        }
    }

    /// Smoke scale: enough jobs for steals and cache hits to land, small
    /// enough for CI.
    pub fn smoke() -> Self {
        Self {
            jobs: 24,
            tenants: 4,
            sizes: Sizes {
                lines: 600,
                ts_records: 600,
                points: 0,
                edges: 0,
                rounds: 0,
            },
            partitions: 2,
            workers: 4,
        }
    }
}

/// Counters a pass accumulates across its job bodies.
#[derive(Default)]
struct PassShared {
    latencies_ms: Mutex<Vec<f64>>,
    tasks_stolen: AtomicU64,
    engine_queue_wait_micros: AtomicU64,
    fragment_cache_hits: AtomicU64,
}

/// One pass of the A/B drill, as the `--out` JSON carries it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PassStats {
    /// `"fifo-no-cache"` or `"fair-shared-pool"`.
    pub label: String,
    /// Jobs submitted (and admitted — the queue is sized for all).
    pub jobs: usize,
    /// Jobs that ran to oracle-verified completion.
    pub completed: u64,
    /// Jobs whose attempt failed (oracle divergence or engine error).
    pub failed: u64,
    /// Wall-clock for the whole pass: first submit to last resolution.
    pub wall_seconds: f64,
    /// Completed jobs per wall-clock second.
    pub jobs_per_sec: f64,
    /// Median submit→resolution latency, milliseconds.
    pub p50_latency_ms: f64,
    /// Tail submit→resolution latency, milliseconds.
    pub p99_latency_ms: f64,
    /// Tasks executed by a pool worker other than the one they were
    /// queued on, summed over every job's engine metrics.
    pub tasks_stolen: u64,
    /// Microseconds stage tasks spent queued in the shared pool.
    pub engine_queue_wait_micros: u64,
    /// Checksum-verified fragment-cache hits, summed over job metrics.
    pub fragment_cache_hits: u64,
    /// The service's final health snapshot (per-tenant ledgers included).
    pub health: HealthSnapshot,
}

/// Fragment-cache counters of the fair pass.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CacheReport {
    /// Lookups that found a fragment.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Fragments stored.
    pub insertions: u64,
    /// Fragments evicted under byte pressure.
    pub evictions: u64,
    /// Fragments dropped because re-verification failed.
    pub invalidations: u64,
    /// Peak resident bytes observed at pass end (before the cache was
    /// cleared back into the service budget).
    pub bytes_used: u64,
}

/// The mix-concurrent artifact: both passes plus the derived gates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MixReport {
    /// Root seed (service jitter only — datasets use fixed seeds).
    pub seed: u64,
    /// Jobs per pass.
    pub jobs: usize,
    /// Seeded tenants in the fair pass.
    pub tenants: u32,
    /// Engine parallelism inside each job.
    pub partitions: usize,
    /// Service workers.
    pub workers: usize,
    /// FIFO + no cache.
    pub baseline: PassStats,
    /// DRR + fragment cache.
    pub fair: PassStats,
    /// `fair.jobs_per_sec / baseline.jobs_per_sec`.
    pub speedup: f64,
    /// Fair-pass fragment-cache counters.
    pub cache: CacheReport,
}

impl MixReport {
    /// Exit invariants as human-readable violations; empty means the run
    /// passed. `min_speedup` is the throughput gate (1.3 for the CLI
    /// artifact; 0.0 for the timing-free smoke test).
    pub fn violations(&self, min_speedup: f64) -> Vec<String> {
        let mut v = Vec::new();
        for pass in [&self.baseline, &self.fair] {
            let label = &pass.label;
            if pass.completed != pass.jobs as u64 {
                v.push(format!(
                    "{label}: {} of {} jobs completed (all were oracle-gated)",
                    pass.completed, pass.jobs
                ));
            }
            if pass.failed != 0 {
                v.push(format!("{label}: {} job(s) failed", pass.failed));
            }
            v.extend(
                ledger_violations(&pass.health)
                    .into_iter()
                    .map(|m| format!("{label}: {m}")),
            );
        }
        if self.fair.tasks_stolen == 0 {
            v.push("mechanism never exercised: task steal in the shared pool".into());
        }
        if self.fair.fragment_cache_hits == 0 {
            v.push("mechanism never exercised: checksum-verified fragment-cache hit".into());
        }
        if self.baseline.fragment_cache_hits != 0 {
            v.push("baseline pass must not touch the fragment cache".into());
        }
        let seeded = self.fair.health.tenants.len();
        if seeded < self.tenants as usize {
            v.push(format!(
                "fair pass tracked {seeded} tenant ledgers, expected {}",
                self.tenants
            ));
        }
        for t in &self.fair.health.tenants {
            if t.admitted == 0 {
                v.push(format!("tenant {} never admitted a job", t.tenant));
            }
        }
        if self.speedup < min_speedup {
            v.push(format!(
                "speedup gate missed: {:.2}x < {min_speedup:.2}x (baseline {:.2} jobs/s, fair {:.2} jobs/s)",
                self.speedup, self.baseline.jobs_per_sec, self.fair.jobs_per_sec
            ));
        }
        v
    }

    /// Whether every invariant (including the throughput gate) held.
    pub fn passed(&self, min_speedup: f64) -> bool {
        self.violations(min_speedup).is_empty()
    }
}

/// The fair pass's tenant table: tenant 0 gets weight 4, tenant 1 weight
/// 2, the rest weight 1 — budgets generous (admission pressure is not
/// the subject here), in-flight capped at the worker count.
fn seeded_tenants(scale: MixScale) -> FairShareConfig {
    let tenants = (0..scale.tenants)
        .map(|t| TenantSpec {
            tenant: t,
            weight: match t {
                0 => 4,
                1 => 2,
                _ => 1,
            },
            memory_budget_bytes: 1 << 40,
            max_in_flight: scale.workers.max(2),
        })
        .collect();
    FairShareConfig {
        tenants,
        quantum_bytes: FairShareConfig::DEFAULT_QUANTUM_BYTES,
    }
}

fn service_config(seed: u64, scale: MixScale) -> ServiceConfig {
    ServiceConfig {
        // Sized for every job up front: the drill measures scheduling,
        // not shedding, and "in flight" means admitted-and-unresolved.
        queue_capacity: scale.jobs + 8,
        memory_budget_bytes: 64 << 30,
        default_deadline_ms: 600_000,
        retry_budget: 0,
        backoff_base_ms: 1,
        backoff_cap_ms: 8,
        seed,
        breaker_threshold: 1_000_000,
        breaker_cooldown: 2,
        workers: scale.workers,
    }
}

/// Builds one job body: run the cell, verify against the oracle, account
/// metrics and latency into the pass's shared counters.
fn job_body(
    cell: &Arc<Cell>,
    engine: Framework,
    config: EngineConfig,
    fragment: Option<FragmentHandle>,
    shared: &Arc<PassShared>,
    submitted: Instant,
) -> flowmark_serve::JobFn {
    let cell = Arc::clone(cell);
    let shared = Arc::clone(shared);
    Arc::new(move |_, cancel| {
        let setup = Setup {
            cancel: cancel.clone(),
            fragment: fragment.clone(),
            ..Setup::from(config)
        };
        let run = cell.run(engine, &setup);
        shared
            .tasks_stolen
            .fetch_add(run.metrics.tasks_stolen, Ordering::Relaxed);
        shared
            .engine_queue_wait_micros
            .fetch_add(run.metrics.queue_wait_micros, Ordering::Relaxed);
        shared
            .fragment_cache_hits
            .fetch_add(run.metrics.fragment_cache_hits, Ordering::Relaxed);
        if let Ok(mut lat) = shared.latencies_ms.lock() {
            lat.push(submitted.elapsed().as_secs_f64() * 1e3);
        }
        run.verdict
            .into_result(&format!("{}/{engine:?}", cell.name()))
    })
}

/// Runs one pass: submit every job up front, wait for all resolutions,
/// shut the service down, and fold the ledger into [`PassStats`].
fn run_pass(
    label: &str,
    seed: u64,
    scale: MixScale,
    cells: &[Arc<Cell>],
    fair: Option<FairShareConfig>,
) -> (PassStats, Option<flowmark_sched::FragmentCacheStats>) {
    let cfg = service_config(seed, scale);
    let multi_tenant = fair.is_some();
    let service = match fair {
        Some(f) => JobService::start_fair(cfg, f),
        None => JobService::start(cfg),
    };
    // The fair pass's cache charges its bytes against the service's own
    // admission budget, so resident fragments and queued jobs compete
    // for the same memory — build it against *this* service's ledger.
    let cache: Option<Arc<FragmentCache>> = multi_tenant
        .then(|| Arc::new(FragmentCache::with_ledger(4 << 30, service.budget())));

    let config = EngineConfig::with_parallelism(scale.partitions);
    let config_fp = config.fingerprint();

    let shared = Arc::new(PassShared::default());
    let started = Instant::now();
    let mut handles = Vec::with_capacity(scale.jobs);
    for i in 0..scale.jobs {
        let engine = if i % 2 == 0 {
            Framework::Spark
        } else {
            Framework::Flink
        };
        let cell = &cells[(i / 2) % cells.len()];
        // Word Count and TeraSort repeat identical (plan, input, config)
        // jobs across tenants, so every job after the first per
        // (workload, engine) is a fragment-cache hit candidate.
        let job_cache = cache
            .as_ref()
            .filter(|_| {
                matches!(
                    cell.workload(),
                    Some(Workload::WordCount | Workload::TeraSort)
                )
            })
            .map(|c| {
                let key = FragmentKey {
                    plan: fnv64(cell.name()) ^ engine_tag(engine),
                    input: cell.seed(),
                    config: config_fp,
                    faults: 0,
                };
                (Arc::clone(c), key)
            });
        let body = job_body(cell, engine, config, job_cache, &shared, Instant::now());
        let name = format!("{label}/{}/{engine:?}/{i}", cell.name());
        let tenant = if multi_tenant {
            i as u32 % scale.tenants
        } else {
            0
        };
        let request = JobRequest::new(&name, engine, config, body).with_tenant(tenant);
        match service.submit(request) {
            Ok(h) => handles.push(h),
            Err(r) => panic!("mix queue is sized for every job, yet: {r}"),
        }
    }

    let mut completed = 0u64;
    let mut failed = 0u64;
    for h in handles {
        match h.wait() {
            Resolution::Completed { .. } => completed += 1,
            _ => failed += 1,
        }
    }
    let wall_seconds = started.elapsed().as_secs_f64();
    // Snapshot occupancy, then release the cache's reservation before
    // the final health snapshot: the pass is over, and the shutdown
    // invariant is a drained budget.
    let cache_stats = cache.as_ref().map(|c| {
        let stats = c.stats();
        c.clear();
        stats
    });
    let health = service.shutdown();

    let latencies = shared
        .latencies_ms
        .lock()
        .map(|l| l.clone())
        .unwrap_or_default();
    let p50 = percentile(&latencies, 0.50).unwrap_or(0.0);
    let p99 = percentile(&latencies, 0.99).unwrap_or(0.0);
    let stats = PassStats {
        label: label.to_string(),
        jobs: scale.jobs,
        completed,
        failed,
        wall_seconds,
        jobs_per_sec: completed as f64 / wall_seconds.max(1e-9),
        p50_latency_ms: p50,
        p99_latency_ms: p99,
        tasks_stolen: shared.tasks_stolen.load(Ordering::Relaxed),
        engine_queue_wait_micros: shared.engine_queue_wait_micros.load(Ordering::Relaxed),
        fragment_cache_hits: shared.fragment_cache_hits.load(Ordering::Relaxed),
        health,
    };
    (stats, cache_stats)
}

/// Runs the full A/B drill: baseline FIFO/uncached pass, then the
/// fair-share/cached pass over the identical job list.
pub fn run_mix(seed: u64, scale: MixScale) -> MixReport {
    let cells: Vec<Arc<Cell>> = WORKLOADS
        .iter()
        .map(|&w| Arc::new(Cell::generate(w, &scale.sizes)))
        .collect();
    let (baseline, _) = run_pass("fifo-no-cache", seed, scale, &cells, None);
    let (fair, cache) = run_pass(
        "fair-shared-pool",
        seed,
        scale,
        &cells,
        Some(seeded_tenants(scale)),
    );
    let cache_stats = cache.unwrap_or_default();
    let speedup = fair.jobs_per_sec / baseline.jobs_per_sec.max(1e-9);
    MixReport {
        seed,
        jobs: scale.jobs,
        tenants: scale.tenants,
        partitions: scale.partitions,
        workers: scale.workers,
        baseline,
        fair,
        speedup,
        cache: CacheReport {
            hits: cache_stats.hits,
            misses: cache_stats.misses,
            insertions: cache_stats.insertions,
            evictions: cache_stats.evictions,
            invalidations: cache_stats.invalidations,
            bytes_used: cache_stats.bytes_used,
        },
    }
}

/// Human-readable report, one block per pass plus the gates.
pub fn render(report: &MixReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "mix-concurrent: {} jobs x 2 passes, {} tenants, {} workers, parallelism {}",
        report.jobs, report.tenants, report.workers, report.partitions
    );
    for pass in [&report.baseline, &report.fair] {
        let _ = writeln!(
            out,
            "  {:<16} {:>7.2} jobs/s  p50 {:>8.1} ms  p99 {:>8.1} ms  \
             ({} completed, {} failed, {:.2}s wall)",
            pass.label,
            pass.jobs_per_sec,
            pass.p50_latency_ms,
            pass.p99_latency_ms,
            pass.completed,
            pass.failed,
            pass.wall_seconds,
        );
    }
    let _ = writeln!(
        out,
        "  speedup {:.2}x | steals {} | cache hits {} (verified) / misses {} / \
         insertions {} / evictions {} | pool wait {:.1} ms total",
        report.speedup,
        report.fair.tasks_stolen,
        report.fair.fragment_cache_hits,
        report.cache.misses,
        report.cache.insertions,
        report.cache.evictions,
        report.fair.engine_queue_wait_micros as f64 / 1e3,
    );
    for t in &report.fair.health.tenants {
        let _ = writeln!(
            out,
            "  tenant {:>2}: admitted {:>4} completed {:>4} rejected {:>2} queue-wait {:>9.1} ms",
            t.tenant,
            t.admitted,
            t.completed,
            t.rejected,
            t.queue_wait_micros as f64 / 1e3,
        );
    }
    out
}
