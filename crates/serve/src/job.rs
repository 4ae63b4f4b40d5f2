//! Job descriptions, handles, and terminal resolutions.

use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use flowmark_core::config::{EngineConfig, Framework};
use flowmark_engine::faults::CancelToken;

/// The work a job performs: called once per attempt with the attempt
/// number and the job-level cancellation token. The closure builds its own
/// engine context (threading the token into the `cancel` field of a
/// `flowmark_engine::Setup`), runs the workload, verifies the
/// result, and returns `Err` with a message on a detected divergence.
/// Panics unwinding out of the closure are caught by the worker and
/// classified: a `JobCancelled` payload resolves the job as cancelled or
/// timed out, anything else consumes one unit of retry budget.
pub type JobFn = Arc<dyn Fn(u32, &CancelToken) -> Result<(), String> + Send + Sync>;

/// Liveness SLO for long-running streaming tenants.
///
/// Completion-based supervision (deadline, retries) cannot watch a job
/// that is *supposed* to run forever: a streaming tenant whose upstream
/// stalls never finishes and never fails — it just falls behind. The SLO
/// watches a shared watermark-lag gauge (the streaming runtime's
/// `StreamJobConfig::lag_gauge`, in ticks) from the attempt watchdog: when
/// the lag stays above `max_lag_ticks` for `grace_polls` consecutive
/// watchdog slices, the job is cancelled and resolved as **Failed** — not
/// Cancelled — so the engine's circuit breaker counts the violation.
#[derive(Clone)]
pub struct LivenessSlo {
    /// The watermark-lag gauge the streaming job updates, in ticks.
    pub lag: Arc<AtomicU64>,
    /// Largest tolerable watermark lag, in ticks.
    pub max_lag_ticks: u64,
    /// Consecutive watchdog polls (2 ms apart) the lag must stay above
    /// the ceiling before the SLO fires — absorbs transient spikes.
    pub grace_polls: u32,
}

impl std::fmt::Debug for LivenessSlo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LivenessSlo")
            .field("lag", &self.lag.load(std::sync::atomic::Ordering::Relaxed))
            .field("max_lag_ticks", &self.max_lag_ticks)
            .field("grace_polls", &self.grace_polls)
            .finish()
    }
}

/// A unit of work submitted to the [`crate::JobService`].
#[derive(Clone)]
pub struct JobRequest {
    /// Human-readable label carried into reports.
    pub name: String,
    /// Tenant this job bills against; must name a lane of the service's
    /// `FairShareConfig`. The default tenant 0 is the single lane of
    /// the default (FIFO-equivalent) policy.
    pub tenant: u32,
    /// Which engine the job runs on (selects the circuit breaker).
    pub engine: Framework,
    /// The engine configuration the job will run under; its
    /// [`EngineConfig::memory_footprint_bytes`] is the admission charge.
    pub config: EngineConfig,
    /// Per-job deadline override; `None` takes the service default.
    pub deadline: Option<Duration>,
    /// Per-job retry-budget override; `None` takes the service default.
    pub retry_budget: Option<u32>,
    /// Optional liveness SLO for long-running (streaming) jobs.
    pub liveness: Option<LivenessSlo>,
    /// The attempt body.
    pub run: JobFn,
}

impl JobRequest {
    /// A request with service-default deadline and retry budget.
    pub fn new(
        name: impl Into<String>,
        engine: Framework,
        config: EngineConfig,
        run: JobFn,
    ) -> Self {
        Self {
            name: name.into(),
            tenant: 0,
            engine,
            config,
            deadline: None,
            retry_budget: None,
            liveness: None,
            run,
        }
    }

    /// The same request billed to `tenant`.
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// The same request supervised by a liveness SLO.
    pub fn with_liveness(mut self, slo: LivenessSlo) -> Self {
        self.liveness = Some(slo);
        self
    }
}

/// Why a submission was refused at admission time. Load shedding is always
/// explicit and typed — a job is never silently dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded job queue is full.
    QueueFull {
        /// Tenant whose submission was shed.
        tenant: u32,
    },
    /// Admitting the job would overcommit the byte-denominated memory
    /// budget — the service-wide one, or the named tenant's own.
    OverBudget {
        /// Tenant whose submission was shed.
        tenant: u32,
        /// Bytes the job's config would pin.
        needed: u64,
        /// Bytes currently uncommitted in the refusing budget.
        available: u64,
    },
    /// The target engine's circuit breaker is open.
    BreakerOpen {
        /// Tenant whose submission was shed.
        tenant: u32,
    },
    /// The service is shutting down and no longer accepts work.
    ShuttingDown {
        /// Tenant whose submission was shed.
        tenant: u32,
    },
    /// The request names a tenant absent from the service's fair-share
    /// tenant table.
    UnknownTenant {
        /// The unrecognized tenant id.
        tenant: u32,
    },
}

impl Rejected {
    /// The tenant whose submission was refused.
    pub fn tenant(&self) -> u32 {
        match self {
            Rejected::QueueFull { tenant }
            | Rejected::OverBudget { tenant, .. }
            | Rejected::BreakerOpen { tenant }
            | Rejected::ShuttingDown { tenant }
            | Rejected::UnknownTenant { tenant } => *tenant,
        }
    }
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull { tenant } => write!(f, "queue full (tenant {tenant})"),
            Rejected::OverBudget {
                tenant,
                needed,
                available,
            } => {
                write!(
                    f,
                    "over budget (tenant {tenant}, needed {needed} B, available {available} B)"
                )
            }
            Rejected::BreakerOpen { tenant } => {
                write!(f, "circuit breaker open (tenant {tenant})")
            }
            Rejected::ShuttingDown { tenant } => {
                write!(f, "service shutting down (tenant {tenant})")
            }
            Rejected::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant}"),
        }
    }
}

/// How an *admitted* job ended. Together with [`Rejected`] this is the
/// exhaustive set of outcomes — every submission resolves to exactly one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// The job ran to completion (possibly after retries).
    Completed {
        /// Attempts consumed, 1-based.
        attempts: u32,
    },
    /// Every attempt failed and the retry budget is exhausted.
    Failed {
        /// Attempts consumed, 1-based.
        attempts: u32,
        /// The final attempt's error.
        error: String,
    },
    /// The deadline expired and the job was cancelled cooperatively.
    TimedOut,
    /// The job was cancelled explicitly via [`JobHandle::cancel`].
    Cancelled,
}

/// Shared slot the worker fills and the handle waits on.
pub(crate) struct JobCell {
    pub(crate) cancel: CancelToken,
    state: Mutex<Option<Resolution>>,
    done: Condvar,
}

impl JobCell {
    pub(crate) fn new(cancel: CancelToken) -> Self {
        Self {
            cancel,
            state: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    pub(crate) fn resolve(&self, resolution: Resolution) {
        let mut guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *guard = Some(resolution);
        self.done.notify_all();
    }

    pub(crate) fn wait(&self) -> Resolution {
        let mut guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(resolution) = guard.as_ref() {
                return resolution.clone();
            }
            guard = self.done.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }

    pub(crate) fn peek(&self) -> Option<Resolution> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// Caller-side handle to an admitted job.
#[derive(Clone)]
pub struct JobHandle {
    pub(crate) cell: Arc<JobCell>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("resolution", &self.cell.peek())
            .finish()
    }
}

impl JobHandle {
    /// Requests cooperative cancellation: in-flight tasks unwind at their
    /// next cancellation point, queued jobs resolve without running.
    pub fn cancel(&self) {
        self.cell.cancel.set();
    }

    /// Blocks until the job resolves.
    pub fn wait(&self) -> Resolution {
        self.cell.wait()
    }

    /// Non-blocking look at the resolution, if any.
    pub fn resolution(&self) -> Option<Resolution> {
        self.cell.peek()
    }
}
