//! `repro soak`: a seeded chaos-soak drill of the supervised job service.
//!
//! Where `repro chaos` exercises *task-level* recovery inside a single
//! job, the soak drives the whole [`flowmark_serve::JobService`] stack:
//! admission control, deadlines, explicit cancellation, retry budgets and
//! per-engine circuit breakers — all while the jobs themselves run the six
//! paper workloads on both engines under `FaultConfig::chaos` injection
//! and verify every completion against the sequential oracle. Each
//! workload is the same [`Cell`] the chaos drill runs, passed the job's
//! cancel token.
//!
//! The drill is phased so each supervision mechanism is *guaranteed* to
//! fire at least once for any seed, then a seeded randomized mix of
//! workload × engine cells soaks the service. At exit it asserts the
//! ledger: every submission resolved (none lost), oracle checks clean,
//! memory budget drained to zero, workers joined.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

use flowmark_core::config::{EngineConfig, FairShareConfig, Framework, ServiceConfig, TenantSpec};
use flowmark_datagen::nexmark::{generate, NexmarkConfig};
use flowmark_engine::faults::check_cancelled;
use flowmark_engine::streaming::{
    run_continuous_checkpointed, run_micro_batch_checkpointed, SourceConfig, StreamJobConfig,
};
use flowmark_engine::{CancelToken, EngineMetrics, FaultConfig, FaultPlan, Setup};
use flowmark_serve::{
    BreakerState, HealthSnapshot, JobRequest, JobService, LivenessSlo, Rejected, Resolution,
};
use flowmark_workloads::cell::{Cell, Sizes};
use flowmark_workloads::stream::{canonical, nexmark_source, q6_operator, q6_oracle, route_nexmark};
use flowmark_workloads::Workload;
use serde::{Deserialize, Serialize};

/// splitmix64, the workspace-standard deterministic bit mixer.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Soak knobs, settable from the `repro soak` CLI.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Root seed: drives the service's breaker/backoff jitter, every mix
    /// cell's workload choice, and every injected fault plan.
    pub seed: u64,
}

impl SoakConfig {
    /// The default drill at a given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The service the soak supervises: a deliberately tight queue (so
    /// overload sheds are reachable), two workers, a generous default
    /// deadline, and breakers that trip after two consecutive failures.
    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            queue_capacity: 4,
            memory_budget_bytes: 8 << 30,
            default_deadline_ms: 120_000,
            retry_budget: 2,
            backoff_base_ms: 1,
            backoff_cap_ms: 8,
            seed: self.seed,
            breaker_threshold: 2,
            // Cooldown 2 jitters to a shed target in [2, 4], so an open
            // breaker always sheds at least one submission before probing.
            breaker_cooldown: 2,
            workers: 2,
        }
    }
}

/// Input sizes and mix length for one soak.
#[derive(Debug, Clone, Copy)]
pub struct SoakScale {
    /// Input sizes of the six cells.
    pub sizes: Sizes,
    /// Engine parallelism.
    pub partitions: usize,
    /// Mixed-phase jobs (each a seeded workload × engine cell under
    /// chaos injection).
    pub mix_jobs: usize,
}

impl SoakScale {
    /// CLI scale.
    pub fn full() -> Self {
        Self {
            sizes: Sizes {
                lines: 20_000,
                ts_records: 20_000,
                points: 12_000,
                edges: 6_000,
                rounds: 6,
            },
            partitions: 8,
            mix_jobs: 36,
        }
    }

    /// Smoke scale: small datasets, few mix jobs, still enough tasks per
    /// cell for the guaranteed kill and straggler to land.
    pub fn smoke() -> Self {
        Self {
            sizes: Sizes {
                lines: 1_200,
                ts_records: 1_200,
                points: 1_500,
                edges: 1_000,
                rounds: 4,
            },
            partitions: 4,
            mix_jobs: 12,
        }
    }
}

/// Per-engine job ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineTally {
    /// Jobs admitted for this engine.
    pub submitted: u64,
    /// Jobs that ran to completion (oracle-verified for mix cells).
    pub completed: u64,
    /// Jobs whose every attempt failed.
    pub failed: u64,
    /// Jobs torn down by deadline expiry.
    pub timed_out: u64,
    /// Jobs torn down by explicit cancellation.
    pub cancelled: u64,
    /// Submissions shed at admission for this engine.
    pub shed: u64,
}

/// The soak artifact: the ledger, the exercised-mechanism counters, and
/// the service's final health snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SoakReport {
    /// Root seed of the drill.
    pub seed: u64,
    /// Engine parallelism inside each job.
    pub partitions: usize,
    /// Mixed-phase jobs run.
    pub mix_jobs: usize,
    /// Staged-engine ledger.
    pub spark: EngineTally,
    /// Pipelined-engine ledger.
    pub flink: EngineTally,
    /// Submissions shed because the bounded queue was full.
    pub shed_queue_full: u64,
    /// Submissions shed because they would overcommit the memory budget.
    pub shed_over_budget: u64,
    /// Submissions shed by an open circuit breaker.
    pub shed_breaker_open: u64,
    /// Jobs that timed out at their deadline.
    pub timeouts: u64,
    /// Jobs cancelled explicitly via their handle.
    pub explicit_cancels: u64,
    /// Jobs that failed at least one whole attempt and then completed.
    pub retries_then_success: u64,
    /// Whether a circuit breaker opened (and was later healed by a probe).
    pub breaker_opened: bool,
    /// Whether a streaming tenant's liveness SLO fired (watermark lag
    /// held above the ceiling and the watchdog failed the job);
    /// `default` keeps pre-existing soak artifacts parseable.
    #[serde(default)]
    pub stream_slo_fired: bool,
    /// Whether consecutive SLO violations tripped the pipelined engine's
    /// circuit breaker (the lag breaker) before a probe healed it;
    /// `default` keeps pre-existing soak artifacts parseable.
    #[serde(default)]
    pub stream_lag_breaker_opened: bool,
    /// Completions whose output diverged from the sequential oracle.
    pub oracle_failures: u64,
    /// Whether `JobService::shutdown` returned, i.e. every worker thread
    /// was joined.
    pub workers_joined: bool,
    /// The service's final health snapshot, taken at shutdown.
    pub health: HealthSnapshot,
}

impl SoakReport {
    /// The exit invariants, as human-readable violations; empty means the
    /// soak passed.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if !self.health.drained() {
            v.push(format!(
                "ledger does not balance: {} admitted vs {} resolved ({} queued, {} in flight)",
                self.health.jobs_admitted,
                self.health.jobs_completed
                    + self.health.jobs_failed
                    + self.health.jobs_timed_out
                    + self.health.jobs_cancelled,
                self.health.queue_depth,
                self.health.in_flight,
            ));
        }
        if self.health.budget_in_use_bytes != 0 {
            v.push(format!(
                "memory budget not drained: {} B still reserved",
                self.health.budget_in_use_bytes
            ));
        }
        if self.oracle_failures != 0 {
            v.push(format!(
                "{} completion(s) diverged from the oracle",
                self.oracle_failures
            ));
        }
        if !self.workers_joined {
            v.push("worker threads were not joined".into());
        }
        let must_fire = [
            (self.shed_queue_full, "queue-full shed"),
            (self.shed_over_budget, "over-budget shed"),
            (self.shed_breaker_open, "breaker-open shed"),
            (self.timeouts, "deadline timeout"),
            (self.explicit_cancels, "explicit cancel"),
            (self.retries_then_success, "retry-then-success"),
        ];
        for (count, what) in must_fire {
            if count == 0 {
                v.push(format!("mechanism never exercised: {what}"));
            }
        }
        if !self.breaker_opened {
            v.push("mechanism never exercised: breaker open".into());
        }
        if !self.stream_slo_fired {
            v.push("mechanism never exercised: streaming liveness SLO".into());
        }
        if !self.stream_lag_breaker_opened {
            v.push("mechanism never exercised: lag breaker open".into());
        }
        v
    }

    /// Whether every exit invariant held.
    pub fn passed(&self) -> bool {
        self.violations().is_empty()
    }
}

/// Runs `cell` on one engine built from `setup`. `Err` means a divergence
/// (the message says "diverged") or an engine-fatal error (the message
/// carries its text).
fn run_cell(cell: &Cell, engine: Framework, setup: &Setup) -> Result<(), String> {
    let what = format!("{}/{engine:?}", cell.workload().name());
    cell.run(engine, setup).verdict.into_result(&what)
}

/// A job body that sleeps cooperatively until cancelled (by deadline or
/// handle), then tears down through the engine's cancellation point.
fn straggler_body() -> flowmark_serve::JobFn {
    Arc::new(|_, cancel: &CancelToken| {
        cancel.sleep(Duration::from_secs(600));
        check_cancelled(cancel, &EngineMetrics::new(), 0, 0);
        Ok(())
    })
}

fn trivial(name: &str, engine: Framework) -> JobRequest {
    JobRequest::new(
        name,
        engine,
        EngineConfig::default(),
        Arc::new(|_, _| Ok(())),
    )
}

/// Tracks a resolution into the report's ledgers.
fn settle(report: &mut SoakReport, engine: Framework, resolution: &Resolution) {
    let tally = match engine {
        Framework::Spark => &mut report.spark,
        Framework::Flink => &mut report.flink,
    };
    match resolution {
        Resolution::Completed { attempts } => {
            tally.completed += 1;
            if *attempts > 1 {
                report.retries_then_success += 1;
            }
        }
        Resolution::Failed { error, .. } => {
            tally.failed += 1;
            if error.contains("diverged") {
                report.oracle_failures += 1;
            }
        }
        Resolution::TimedOut => {
            tally.timed_out += 1;
            report.timeouts += 1;
        }
        Resolution::Cancelled => {
            tally.cancelled += 1;
            report.explicit_cancels += 1;
        }
    }
}

fn shed(report: &mut SoakReport, engine: Framework, rejected: &Rejected) {
    let tally = match engine {
        Framework::Spark => &mut report.spark,
        Framework::Flink => &mut report.flink,
    };
    tally.shed += 1;
    match rejected {
        Rejected::QueueFull { .. } => report.shed_queue_full += 1,
        Rejected::OverBudget { .. } => report.shed_over_budget += 1,
        Rejected::BreakerOpen { .. } => report.shed_breaker_open += 1,
        Rejected::ShuttingDown { .. } | Rejected::UnknownTenant { .. } => {}
    }
}

/// Spin-waits (cancellation-free, bounded) until `pred` holds on the
/// service's health; used to make phase boundaries deterministic.
fn await_health(service: &JobService, what: &str, pred: impl Fn(&HealthSnapshot) -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        if pred(&service.health()) {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "soak phase barrier timed out waiting for: {what}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Runs the full soak: five mechanism phases, then the seeded mix, then
/// shutdown and the exit ledger.
pub fn run_soak(config: SoakConfig, scale: SoakScale) -> SoakReport {
    let service_cfg = config.service_config();
    let workers = service_cfg.workers;
    let queue_capacity = service_cfg.queue_capacity;
    // Two fair-share lanes: batch jobs bill tenant 0, streaming tenants
    // bill tenant 1, so the long-running lane cannot starve the batch mix.
    let service = JobService::start_fair(
        service_cfg,
        FairShareConfig {
            tenants: vec![TenantSpec::unbounded(0), TenantSpec::unbounded(1)],
            quantum_bytes: FairShareConfig::DEFAULT_QUANTUM_BYTES,
        },
    );
    // Generated once; every mix-phase attempt clones its input out.
    let cells: Vec<Arc<Cell>> = Workload::ALL
        .iter()
        .map(|&w| Arc::new(Cell::generate(w, &scale.sizes)))
        .collect();
    let parts = scale.partitions;

    let mut report = SoakReport {
        seed: config.seed,
        partitions: parts,
        mix_jobs: scale.mix_jobs,
        spark: EngineTally::default(),
        flink: EngineTally::default(),
        shed_queue_full: 0,
        shed_over_budget: 0,
        shed_breaker_open: 0,
        timeouts: 0,
        explicit_cancels: 0,
        retries_then_success: 0,
        breaker_opened: false,
        stream_slo_fired: false,
        stream_lag_breaker_opened: false,
        oracle_failures: 0,
        workers_joined: false,
        health: service.health(),
    };

    let submit = |report: &mut SoakReport, service: &JobService, job: JobRequest| {
        let engine = job.engine;
        match service.submit(job) {
            Ok(handle) => {
                match engine {
                    Framework::Spark => report.spark.submitted += 1,
                    Framework::Flink => report.flink.submitted += 1,
                }
                Some(handle)
            }
            Err(rejected) => {
                shed(report, engine, &rejected);
                None
            }
        }
    };

    // --- Phase 1: overload → queue-full shed ------------------------------
    // Stragglers pin every worker, quick jobs fill the bounded queue, and
    // one more submission must shed with `QueueFull`.
    let blockers: Vec<_> = (0..workers)
        .filter_map(|i| {
            let mut job = JobRequest::new(
                format!("blocker-{i}"),
                Framework::Spark,
                EngineConfig::default(),
                straggler_body(),
            );
            job.deadline = Some(Duration::from_secs(300));
            submit(&mut report, &service, job)
        })
        .collect();
    assert_eq!(blockers.len(), workers, "blockers must admit");
    await_health(&service, "workers pinned by blockers", |h| {
        h.in_flight == workers
    });
    let queued: Vec<_> = (0..queue_capacity)
        .filter_map(|i| submit(&mut report, &service, trivial(&format!("queued-{i}"), Framework::Spark)))
        .collect();
    assert_eq!(queued.len(), queue_capacity, "queue must fill exactly");
    let overflow = submit(&mut report, &service, trivial("overflow", Framework::Spark));
    assert!(overflow.is_none(), "overflow submission must shed");
    for b in &blockers {
        b.cancel();
    }
    for b in &blockers {
        let r = b.wait();
        settle(&mut report, Framework::Spark, &r);
    }
    for q in &queued {
        let r = q.wait();
        settle(&mut report, Framework::Spark, &r);
    }

    // --- Phase 2: over-budget shed ----------------------------------------
    let mut fat = trivial("fat", Framework::Flink);
    fat.config.cache_bytes = u64::MAX / 2;
    let fat = submit(&mut report, &service, fat);
    assert!(fat.is_none(), "oversized job must shed");
    assert!(report.shed_over_budget >= 1);

    // --- Phase 3: deadline timeout ----------------------------------------
    let mut slow = JobRequest::new(
        "deadline-straggler",
        Framework::Flink,
        EngineConfig::default(),
        straggler_body(),
    );
    slow.deadline = Some(Duration::from_millis(40));
    if let Some(h) = submit(&mut report, &service, slow) {
        let r = h.wait();
        assert_eq!(r, Resolution::TimedOut, "tiny deadline must expire");
        settle(&mut report, Framework::Flink, &r);
    }
    // Reset the pipelined breaker's consecutive-failure count (a timeout
    // counts as a failure) before the mix phase.
    if let Some(h) = submit(&mut report, &service, trivial("flink-reset", Framework::Flink)) {
        let r = h.wait();
        settle(&mut report, Framework::Flink, &r);
    }

    // --- Phase 4: explicit cancellation -----------------------------------
    if let Some(h) = submit(
        &mut report,
        &service,
        JobRequest::new(
            "cancel-target",
            Framework::Spark,
            EngineConfig::default(),
            straggler_body(),
        ),
    ) {
        await_health(&service, "cancel target claimed", |hs| hs.in_flight >= 1);
        h.cancel();
        let r = h.wait();
        assert_eq!(r, Resolution::Cancelled, "explicit cancel must win");
        settle(&mut report, Framework::Spark, &r);
    }

    // --- Phase 5: breaker open → shed → probe heals ------------------------
    for i in 0..2 {
        let mut bad = JobRequest::new(
            format!("poisoned-{i}"),
            Framework::Spark,
            EngineConfig::default(),
            Arc::new(|_, _| Err("poisoned (injected)".into())),
        );
        bad.retry_budget = Some(0);
        if let Some(h) = submit(&mut report, &service, bad) {
            let r = h.wait();
            settle(&mut report, Framework::Spark, &r);
        }
    }
    report.breaker_opened = service.health().spark_breaker == BreakerState::Open;
    assert!(report.breaker_opened, "two consecutive failures must trip");
    // Shed against the open breaker until the seeded cooldown admits a
    // healthy probe, which closes it.
    let mut probes = 0u32;
    loop {
        probes += 1;
        assert!(probes <= 8, "breaker cooldown must end");
        match submit(&mut report, &service, trivial("probe", Framework::Spark)) {
            Some(h) => {
                let r = h.wait();
                assert_eq!(r, Resolution::Completed { attempts: 1 });
                settle(&mut report, Framework::Spark, &r);
                break;
            }
            None => continue,
        }
    }
    assert_eq!(service.health().spark_breaker, BreakerState::Closed);

    // --- Phase 5b: streaming tenant → liveness SLO → lag breaker ------------
    // A long-running streaming tenant whose upstream watermark stalls: the
    // stream keeps flowing (the frontier advances) but the watermark
    // freezes, so lag grows while the job neither finishes nor fails on
    // its own. Completion-based supervision is blind here — only the
    // liveness SLO's watchdog can catch it. Two consecutive violations on
    // the pipelined engine must trip its circuit breaker (the lag
    // breaker), which a healthy probe then heals before the mix.
    for i in 0..2u64 {
        let stream_seed = splitmix(config.seed ^ 0x57EA_4D00 ^ i);
        let gauge = Arc::new(AtomicU64::new(0));
        let slo = LivenessSlo {
            lag: Arc::clone(&gauge),
            max_lag_ticks: 200,
            grace_polls: 3,
        };
        let mut job = JobRequest::new(
            format!("stream-tenant-{i}"),
            Framework::Flink,
            EngineConfig::default(),
            Arc::new(move |_, cancel: &CancelToken| {
                let src = nexmark_source(
                    generate(stream_seed, 600, &NexmarkConfig::default()),
                    SourceConfig {
                        allowance: 8,
                        watermark_every: 8,
                        stall_watermark_after: Some(150),
                        hold_at_end: true,
                    },
                );
                let cfg = StreamJobConfig {
                    parallelism: 2,
                    lag_gauge: Some(Arc::clone(&gauge)),
                    ..StreamJobConfig::default()
                };
                run_continuous_checkpointed(
                    &src,
                    |_| q6_operator(),
                    route_nexmark,
                    &cfg,
                    &FaultPlan::disabled(),
                    &EngineMetrics::new(),
                    cancel,
                );
                Ok(())
            }),
        )
        .with_tenant(1)
        .with_liveness(slo);
        job.retry_budget = Some(0);
        if let Some(h) = submit(&mut report, &service, job) {
            let r = h.wait();
            if matches!(&r, Resolution::Failed { error, .. } if error.contains("liveness SLO violated"))
            {
                report.stream_slo_fired = true;
            }
            settle(&mut report, Framework::Flink, &r);
        }
    }
    assert!(report.stream_slo_fired, "stalled watermark must violate the SLO");
    report.stream_lag_breaker_opened = service.health().flink_breaker == BreakerState::Open;
    assert!(
        report.stream_lag_breaker_opened,
        "two SLO violations must trip the lag breaker"
    );
    let mut probes = 0u32;
    loop {
        probes += 1;
        assert!(probes <= 8, "lag-breaker cooldown must end");
        match submit(&mut report, &service, trivial("stream-probe", Framework::Flink)) {
            Some(h) => {
                let r = h.wait();
                assert_eq!(r, Resolution::Completed { attempts: 1 });
                settle(&mut report, Framework::Flink, &r);
                break;
            }
            None => continue,
        }
    }
    assert_eq!(service.health().flink_breaker, BreakerState::Closed);

    // --- Phase 6: seeded chaos mix -----------------------------------------
    // Each cell: a seeded workload choice, alternating engines, a fresh
    // chaos fault plan (guaranteed ≥1 kill and ≥1 straggler), verified
    // against the oracle inside the job body. Every other batch-migrated
    // cell upgrades to the corruption preset, so the service also soaks
    // integrity recovery — detected bit rot answered by recompute or
    // checkpoint rejection — under the same admission/retry supervision.
    // Submitted sequentially so the phase never contends with its own
    // queue bound.
    for i in 0..scale.mix_jobs {
        let workload = (splitmix(config.seed ^ (i as u64)) % 6) as usize;
        let engine = if i % 2 == 0 {
            Framework::Spark
        } else {
            Framework::Flink
        };
        let corrupt = workload < 3 && (i / 2) % 2 == 0;
        let plan_seed = config
            .seed
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(i as u64);
        // Every sixth mix slot is a bounded streaming tenant: a q6
        // windowed aggregate under chaos injection, oracle-verified,
        // billed to the streaming lane and supervised by a (healthy)
        // liveness SLO — the staged-engine slots run the micro-batch
        // runtime, the pipelined ones the continuous runtime.
        if i % 6 == 3 {
            let micro = engine == Framework::Spark;
            let gauge = Arc::new(AtomicU64::new(0));
            let slo = LivenessSlo {
                lag: Arc::clone(&gauge),
                max_lag_ticks: 100_000,
                grace_polls: 3,
            };
            let job = JobRequest::new(
                format!("mix-{i}-stream-q6"),
                engine,
                EngineConfig::default(),
                Arc::new(move |attempt, cancel: &CancelToken| {
                    let seed = plan_seed.wrapping_add(u64::from(attempt) << 32);
                    let src = nexmark_source(
                        generate(seed, 600, &NexmarkConfig::default()),
                        SourceConfig::default(),
                    );
                    let cfg = StreamJobConfig {
                        parallelism: 2,
                        lag_gauge: Some(Arc::clone(&gauge)),
                        ..StreamJobConfig::default()
                    };
                    let plan = FaultPlan::new(FaultConfig::chaos(seed));
                    let metrics = EngineMetrics::new();
                    let out = if micro {
                        run_micro_batch_checkpointed(
                            &src, |_| q6_operator(), route_nexmark, &cfg, &plan, &metrics, cancel,
                        )
                    } else {
                        run_continuous_checkpointed(
                            &src, |_| q6_operator(), route_nexmark, &cfg, &plan, &metrics, cancel,
                        )
                    };
                    if canonical(&out.committed) == q6_oracle(&src) {
                        Ok(())
                    } else {
                        Err("stream-q6 diverged from oracle".into())
                    }
                }),
            )
            .with_tenant(1)
            .with_liveness(slo);
            if let Some(h) = submit(&mut report, &service, job) {
                let r = h.wait();
                settle(&mut report, engine, &r);
            }
            continue;
        }
        let cell = Arc::clone(&cells[workload]);
        let job = JobRequest::new(
            format!("mix-{i}-{}", cell.workload().name()),
            engine,
            EngineConfig::with_parallelism(parts),
            Arc::new(move |attempt, cancel: &CancelToken| {
                let seed = plan_seed.wrapping_add(u64::from(attempt) << 32);
                let faults = FaultPlan::new(if corrupt {
                    FaultConfig::corruption(seed)
                } else {
                    FaultConfig::chaos(seed)
                });
                let setup = Setup {
                    faults,
                    cancel: cancel.clone(),
                    ..Setup::new(parts)
                };
                run_cell(&cell, engine, &setup)
            }),
        );
        if let Some(h) = submit(&mut report, &service, job) {
            let r = h.wait();
            settle(&mut report, engine, &r);
        }
    }

    // --- Phase 7: retry-then-success (guaranteed) --------------------------
    // The mix can already retry (an engine-fatal plan fails one attempt),
    // but the mechanism must fire for *every* seed, so one job fails its
    // first whole attempt by construction and verifies on the second.
    {
        let cell = Arc::clone(&cells[0]);
        let job = JobRequest::new(
            "retry-then-success",
            Framework::Spark,
            EngineConfig::with_parallelism(parts),
            Arc::new(move |attempt, cancel: &CancelToken| {
                if attempt == 0 {
                    return Err("first attempt poisoned (injected)".into());
                }
                let setup = Setup {
                    cancel: cancel.clone(),
                    ..Setup::new(parts)
                };
                run_cell(&cell, Framework::Spark, &setup)
            }),
        );
        if let Some(h) = submit(&mut report, &service, job) {
            let r = h.wait();
            assert_eq!(r, Resolution::Completed { attempts: 2 });
            settle(&mut report, Framework::Spark, &r);
        }
    }

    // --- Shutdown: drain, join workers, final ledger -----------------------
    report.health = service.shutdown();
    report.workers_joined = true;
    report
}

/// Renders the soak as a human-readable table.
pub fn render(report: &SoakReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "chaos soak — seed {}, {} mix jobs, {} partitions\n",
        report.seed, report.mix_jobs, report.partitions
    ));
    out.push_str(&format!(
        "{:<8} {:>9} {:>9} {:>7} {:>9} {:>9} {:>5}\n",
        "engine", "submitted", "completed", "failed", "timed-out", "cancelled", "shed"
    ));
    for (name, t) in [("spark", &report.spark), ("flink", &report.flink)] {
        out.push_str(&format!(
            "{:<8} {:>9} {:>9} {:>7} {:>9} {:>9} {:>5}\n",
            name, t.submitted, t.completed, t.failed, t.timed_out, t.cancelled, t.shed
        ));
    }
    out.push_str(&format!(
        "sheds: {} queue-full, {} over-budget, {} breaker-open; \
         {} timeout(s), {} cancel(s), {} retry-then-success, breaker opened: {}\n",
        report.shed_queue_full,
        report.shed_over_budget,
        report.shed_breaker_open,
        report.timeouts,
        report.explicit_cancels,
        report.retries_then_success,
        report.breaker_opened,
    ));
    out.push_str(&format!(
        "streaming: liveness SLO fired: {}, lag breaker opened: {}\n",
        report.stream_slo_fired, report.stream_lag_breaker_opened,
    ));
    out.push_str(&format!(
        "exit ledger: {} admitted = {} completed + {} failed + {} timed-out + {} cancelled; \
         budget in use {} B; oracle failures {}\n",
        report.health.jobs_admitted,
        report.health.jobs_completed,
        report.health.jobs_failed,
        report.health.jobs_timed_out,
        report.health.jobs_cancelled,
        report.health.budget_in_use_bytes,
        report.oracle_failures,
    ));
    match report.violations().as_slice() {
        [] => out.push_str("soak PASSED: every invariant held\n"),
        violations => {
            out.push_str("soak FAILED:\n");
            for v in violations {
                out.push_str(&format!("  - {v}\n"));
            }
        }
    }
    out
}

// The soak itself is exercised (at smoke scale, every invariant asserted)
// by the tier-1 integration test `tests/soak_smoke.rs`.

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json_and_renders() {
        let report = SoakReport {
            seed: 7,
            partitions: 4,
            mix_jobs: 12,
            spark: EngineTally {
                submitted: 10,
                completed: 8,
                failed: 2,
                ..Default::default()
            },
            flink: EngineTally {
                submitted: 8,
                completed: 7,
                timed_out: 1,
                ..Default::default()
            },
            shed_queue_full: 1,
            shed_over_budget: 1,
            shed_breaker_open: 1,
            timeouts: 1,
            explicit_cancels: 2,
            retries_then_success: 1,
            breaker_opened: true,
            stream_slo_fired: true,
            stream_lag_breaker_opened: true,
            oracle_failures: 0,
            workers_joined: true,
            health: HealthSnapshot {
                queue_depth: 0,
                in_flight: 0,
                budget_in_use_bytes: 0,
                budget_capacity_bytes: 8 << 30,
                spark_breaker: BreakerState::Closed,
                flink_breaker: BreakerState::Closed,
                jobs_admitted: 18,
                jobs_shed: 3,
                jobs_completed: 15,
                jobs_failed: 2,
                jobs_timed_out: 1,
                jobs_cancelled: 0,
                job_retries: 1,
                breaker_rejections: 1,
                tenants: vec![],
            },
        };
        let json = serde_json::to_string_pretty(&report).expect("serializes");
        let back: SoakReport = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.seed, 7);
        assert!(back.passed(), "{:?}", back.violations());
        assert!(render(&back).contains("soak PASSED"));
    }

    #[test]
    fn violations_catch_a_lost_job_and_an_unfired_mechanism() {
        let mut health = HealthSnapshot {
            queue_depth: 0,
            in_flight: 0,
            budget_in_use_bytes: 64,
            budget_capacity_bytes: 8 << 30,
            spark_breaker: BreakerState::Closed,
            flink_breaker: BreakerState::Closed,
            jobs_admitted: 5,
            jobs_shed: 0,
            jobs_completed: 4,
            jobs_failed: 0,
            jobs_timed_out: 0,
            jobs_cancelled: 0,
            job_retries: 0,
            breaker_rejections: 0,
            tenants: vec![],
        };
        let report = SoakReport {
            seed: 1,
            partitions: 4,
            mix_jobs: 0,
            spark: EngineTally::default(),
            flink: EngineTally::default(),
            shed_queue_full: 0,
            shed_over_budget: 1,
            shed_breaker_open: 1,
            timeouts: 1,
            explicit_cancels: 1,
            retries_then_success: 1,
            breaker_opened: true,
            stream_slo_fired: true,
            stream_lag_breaker_opened: true,
            oracle_failures: 1,
            workers_joined: true,
            health: health.clone(),
        };
        let v = report.violations();
        assert!(v.iter().any(|m| m.contains("ledger does not balance")));
        assert!(v.iter().any(|m| m.contains("budget not drained")));
        assert!(v.iter().any(|m| m.contains("diverged")));
        assert!(v.iter().any(|m| m.contains("queue-full shed")));
        health.jobs_completed = 5;
        health.budget_in_use_bytes = 0;
        let fixed = SoakReport {
            health,
            oracle_failures: 0,
            shed_queue_full: 1,
            ..report
        };
        assert!(fixed.passed(), "{:?}", fixed.violations());
    }
}
