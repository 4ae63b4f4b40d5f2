//! `serve-mix`: queueing above the engines.
//!
//! The only workload where admission, deficit round-robin, the shared
//! work-stealing pool and the cross-job fragment cache do any work. One
//! generator thread (this one) drives a fair-share `JobService` through two
//! phases:
//!
//! * **A, closed backlog** — every job is admitted at t0 and the service
//!   drains it: completed jobs per wall second.
//! * **B, open loop** — jobs are submitted on a fixed schedule whatever the
//!   service does; a job's latency runs from the moment it was *due*, so a
//!   stall charges the jobs queued behind it.
//!
//! Jobs are Word Count / Grep / TeraSort on both engines over a pool of
//! distinct small inputs. The fragment cache is sized to hold half of the
//! distinct fragments, so hits, misses and evictions all occur.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use flowmark_core::config::{
    EngineConfig, ExecutorMode, FairShareConfig, Framework, ServiceConfig, TenantSpec,
};
use flowmark_datagen::terasort::{Record, TeraGen};
use flowmark_datagen::text::{TextGen, TextGenConfig};
use flowmark_engine::{FaultPlan, FlinkEnv, SparkContext};
use flowmark_sched::{FragmentCache, FragmentCacheStats, FragmentKey, TaskPool};
use flowmark_serve::{HealthSnapshot, JobFn, JobRequest, JobService, Resolution};
use flowmark_workloads::{grep, terasort, wordcount};

use crate::engines::Engine;
use crate::spec::{Scale, END_TO_END, PER_LAYER};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{
    calib, common_probes, job_stats, peak_rss_mb, set_pool_stats, Layers, RunOpts, RunReport, Tally,
};

/// Tenant weights; every tenant submits the same share of jobs, so the
/// weights show up as different queue waits.
const TENANT_WEIGHTS: [u32; 4] = [4, 2, 1, 1];
/// Share of `--seconds` phase A is sized for in an end-to-end run (phase B
/// takes the rest, less the drain tail).
const PHASE_A_SHARE: f64 = 0.4;
/// Share of `--seconds` phase B's schedule lasts in an end-to-end run.
const PHASE_B_SHARE: f64 = 0.5;
/// Share of `--seconds` each of a traced run's three phases (A untraced,
/// A traced, B) is sized for.
const TRACED_PHASE_SHARE: f64 = 0.2;

/// The job kinds, by index. Word Count and TeraSort go through the batch
/// exchange and are fragment-cacheable; Grep has nothing to cache.
const KINDS: [&str; 3] = ["wordcount", "grep", "terasort"];

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `f` and adds the seconds it took to `acc`.
fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = std::time::Instant::now();
    let r = f();
    *acc += start.elapsed().as_secs_f64();
    r
}

/// The input pool: `inputs` datasets per job kind, each with its oracle.
struct MixData {
    wc: Vec<(Vec<String>, HashMap<String, u64>)>,
    needle: String,
    grep: Vec<(Vec<String>, u64)>,
    ts: Vec<(Vec<Record>, Vec<Vec<u8>>)>,
    /// Seconds spent in the `flowmark-datagen` generators.
    gen_s: f64,
}

impl MixData {
    fn generate(seed: u64, scale: &Scale) -> Self {
        let grep_cfg = TextGenConfig {
            needle_selectivity: 0.05,
            ..TextGenConfig::default()
        };
        let needle = grep_cfg.needle.clone();
        let input_seed = |kind: u64, i: usize| splitmix(seed ^ (kind << 32) ^ i as u64);
        let mut gen_s = 0.0;
        let (mut wc, mut gr, mut ts) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..scale.mix_inputs {
            let lines = timed(&mut gen_s, || {
                TextGen::new(TextGenConfig::default(), input_seed(0, i)).lines(scale.mix_rows)
            });
            let expect = wordcount::oracle(&lines);
            wc.push((lines, expect));

            let lines = timed(&mut gen_s, || {
                TextGen::new(grep_cfg.clone(), input_seed(1, i)).lines(scale.mix_rows)
            });
            let expect = grep::oracle(&lines, &needle);
            gr.push((lines, expect));

            let records = timed(&mut gen_s, || {
                TeraGen::new(input_seed(2, i)).records(scale.mix_rows)
            });
            let keys = terasort::oracle(records.clone())
                .iter()
                .map(|r| r.key().to_vec())
                .collect();
            ts.push((records, keys));
        }
        Self {
            wc,
            needle,
            grep: gr,
            ts,
            gen_s,
        }
    }
}

/// What one job runs: kind, engine, which input of the pool, which tenant.
#[derive(Debug, Clone, Copy)]
struct JobSpec {
    kind: usize,
    engine: Framework,
    input: usize,
    tenant: u32,
}

impl JobSpec {
    /// Job `i` of a sequence: kinds, engines and tenants cycle; the input
    /// is drawn uniformly, so a cache holding half of the pool sees hits,
    /// misses and evictions (a cyclic scan would thrash an LRU to zero).
    fn nth(seed: u64, i: usize, inputs: usize) -> Self {
        Self {
            kind: (i / 2) % KINDS.len(),
            engine: if i.is_multiple_of(2) {
                Framework::Spark
            } else {
                Framework::Flink
            },
            input: (splitmix(seed ^ splitmix(i as u64)) % inputs as u64) as usize,
            tenant: (i % TENANT_WEIGHTS.len()) as u32,
        }
    }

    fn fragment_key(&self, config: &EngineConfig) -> Option<FragmentKey> {
        let plan = match (self.kind, self.engine) {
            (1, _) => return None,
            (k, Framework::Spark) => 0x5354_4147_4544 ^ k as u64, // "STAGED"
            (k, Framework::Flink) => 0x5049_5045_4c4e ^ k as u64, // "PIPELN"
        };
        Some(FragmentKey {
            plan,
            input: ((self.kind as u64) << 32) | self.input as u64,
            config: config.fingerprint(),
            faults: 0,
        })
    }

    fn engine(&self) -> Engine {
        match self.engine {
            Framework::Spark => Engine::Staged,
            Framework::Flink => Engine::Pipelined,
        }
    }
}

/// Runs `spec` on a fresh engine context and checks the output.
fn run_job(
    spec: JobSpec,
    data: &MixData,
    config: &EngineConfig,
    cache: &Arc<FragmentCache>,
    cancel: &flowmark_engine::CancelToken,
) -> bool {
    let p = config.parallelism;
    let key = spec.fragment_key(config);
    let keys_match = |out: &[Vec<Record>], expect: &[Vec<u8>]| {
        out.iter()
            .flatten()
            .map(Record::key)
            .eq(expect.iter().map(Vec::as_slice))
    };
    match spec.engine {
        Framework::Spark => {
            let sc = SparkContext::with_config_faults_cancel(
                config,
                FaultPlan::disabled(),
                cancel.clone(),
            );
            if let Some(key) = key {
                sc.register_fragment(Arc::clone(cache), key);
            }
            match spec.kind {
                0 => {
                    wordcount::run_spark(&sc, data.wc[spec.input].0.clone(), p)
                        == data.wc[spec.input].1
                }
                1 => {
                    grep::run_spark(&sc, data.grep[spec.input].0.clone(), &data.needle, p)
                        == data.grep[spec.input].1
                }
                _ => keys_match(
                    &terasort::run_spark(&sc, data.ts[spec.input].0.clone(), p),
                    &data.ts[spec.input].1,
                ),
            }
        }
        Framework::Flink => {
            let env =
                FlinkEnv::with_config_faults_cancel(config, FaultPlan::disabled(), cancel.clone());
            if let Some(key) = key {
                env.register_fragment(Arc::clone(cache), key);
            }
            match spec.kind {
                0 => {
                    wordcount::run_flink(&env, data.wc[spec.input].0.clone())
                        == data.wc[spec.input].1
                }
                1 => {
                    grep::run_flink(&env, data.grep[spec.input].0.clone(), &data.needle)
                        == data.grep[spec.input].1
                }
                _ => keys_match(
                    &terasort::run_flink(&env, data.ts[spec.input].0.clone(), p),
                    &data.ts[spec.input].1,
                ),
            }
        }
    }
}

fn engine_config(p: usize) -> EngineConfig {
    EngineConfig {
        executor: ExecutorMode::SharedPool,
        ..EngineConfig::with_parallelism(p)
    }
}

/// Set-up: generate the pool and its oracles, then warm up with one job
/// per kind and engine, run directly against an unbounded scratch cache.
/// Every input of a kind has the same row count, so the scratch cache's
/// bytes times the pool size is what all distinct fragments occupy.
fn set_up(opts: &RunOpts, p: usize, tally: &mut Tally) -> (Arc<MixData>, u64) {
    let data = MixData::generate(opts.seed, &opts.scale);
    let config = engine_config(p);
    let scratch = Arc::new(FragmentCache::new(u64::MAX));
    let cancel = flowmark_engine::CancelToken::new();
    for kind in 0..KINDS.len() {
        for engine in [Framework::Spark, Framework::Flink] {
            let spec = JobSpec {
                kind,
                engine,
                input: 0,
                tenant: 0,
            };
            tally.count(run_job(spec, &data, &config, &scratch, &cancel));
        }
    }
    let fragment_bytes = scratch.stats().bytes_used * opts.scale.mix_inputs as u64;
    (Arc::new(data), fragment_bytes)
}

/// Times of one job on the run's clock.
#[derive(Debug, Clone, Copy)]
struct JobTimes {
    spec: JobSpec,
    /// When the schedule wanted it submitted (phase A: t0).
    due: f64,
    submit_start: f64,
    submit_end: f64,
    /// Body start and end; `None` if the body never ran.
    body: Option<(f64, f64)>,
    ok: bool,
}

impl JobTimes {
    fn run_s(&self) -> Option<f64> {
        self.body.map(|(s, e)| e - s)
    }
    fn latency_s(&self) -> Option<f64> {
        self.body.map(|(_, e)| e - self.due)
    }
    fn queue_wait_s(&self) -> Option<f64> {
        self.body.map(|(s, _)| (s - self.submit_start).max(0.0))
    }
}

/// A running service with its cache and clock.
struct Harness {
    service: JobService,
    cache: Arc<FragmentCache>,
    data: Arc<MixData>,
    config: EngineConfig,
    tracer: Arc<Tracer>,
    seed: u64,
    inputs: usize,
}

/// Body stamps by job index, written by service workers.
type Stamps = Arc<Mutex<Vec<Option<(f64, f64, bool)>>>>;

impl Harness {
    fn start(
        opts: &RunOpts,
        p: usize,
        data: Arc<MixData>,
        fragment_bytes: u64,
        queue: usize,
        tracer: Arc<Tracer>,
    ) -> Self {
        let service = JobService::start_fair(
            ServiceConfig {
                // Queue and budgets hold every job: the benchmark measures
                // scheduling, and a shed job is a failed operation.
                queue_capacity: queue + 8,
                memory_budget_bytes: 1 << 50,
                default_deadline_ms: 600_000,
                retry_budget: 0,
                backoff_base_ms: 1,
                backoff_cap_ms: 8,
                seed: opts.seed,
                breaker_threshold: 1_000_000,
                breaker_cooldown: 2,
                workers: p,
            },
            FairShareConfig {
                tenants: TENANT_WEIGHTS
                    .iter()
                    .enumerate()
                    .map(|(t, &weight)| TenantSpec {
                        tenant: t as u32,
                        weight,
                        memory_budget_bytes: 1 << 50,
                        max_in_flight: p.max(2),
                    })
                    .collect(),
                quantum_bytes: FairShareConfig::DEFAULT_QUANTUM_BYTES,
            },
        );
        let cache = Arc::new(FragmentCache::with_ledger(
            (fragment_bytes / 2).max(1),
            service.budget(),
        ));
        Self {
            service,
            cache,
            data,
            config: engine_config(p),
            tracer,
            seed: opts.seed,
            inputs: opts.scale.mix_inputs,
        }
    }

    /// Submits jobs `first..first + n` of the sequence, job `i` when
    /// `due(i)` (seconds after the phase starts) has passed, then waits for
    /// all of them. Returns the jobs' times, the phase's wall seconds and
    /// the backlog (queued + running) at the schedule's middle and end.
    fn phase(
        &self,
        first: usize,
        n: usize,
        due: impl Fn(usize) -> f64,
    ) -> (Vec<JobTimes>, f64, [usize; 2]) {
        let stamps: Stamps = Arc::new(Mutex::new(vec![None; n]));
        let t0 = self.tracer.now();
        let mut jobs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        let mut backlog = [0; 2];
        for i in 0..n {
            let spec = JobSpec::nth(self.seed, first + i, self.inputs);
            let due_at = t0 + due(i);
            let wait = due_at - self.tracer.now();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
            let body: JobFn = {
                let (data, cache, tracer, stamps, config) = (
                    Arc::clone(&self.data),
                    Arc::clone(&self.cache),
                    Arc::clone(&self.tracer),
                    Arc::clone(&stamps),
                    self.config,
                );
                Arc::new(move |_, cancel| {
                    let start = tracer.now();
                    let ok = run_job(spec, &data, &config, &cache, cancel);
                    let end = tracer.now();
                    stamps.lock().expect("stamp table poisoned")[i] = Some((start, end, ok));
                    if ok {
                        Ok(())
                    } else {
                        Err(format!(
                            "{}/{:?} diverged from oracle",
                            KINDS[spec.kind], spec.engine
                        ))
                    }
                })
            };
            let request = JobRequest::new(
                format!("{}/{i}", KINDS[spec.kind]),
                spec.engine,
                self.config,
                body,
            )
            .with_tenant(spec.tenant);
            let submit_start = self.tracer.now();
            let handle = self.service.submit(request);
            let submit_end = self.tracer.now();
            jobs.push(JobTimes {
                spec,
                due: due_at,
                submit_start,
                submit_end,
                body: None,
                ok: false,
            });
            handles.push(handle);
            if i + 1 == n / 2 || i + 1 == n {
                let h = self.service.health();
                backlog[usize::from(i + 1 == n)] = h.queue_depth + h.in_flight;
            }
        }
        let completed: Vec<bool> = handles
            .into_iter()
            .map(|h| h.is_ok_and(|h| matches!(h.wait(), Resolution::Completed { .. })))
            .collect();
        let wall = self.tracer.now() - t0;
        let stamps = stamps.lock().expect("stamp table poisoned");
        for (i, job) in jobs.iter_mut().enumerate() {
            if let Some((start, end, ok)) = stamps[i] {
                job.body = Some((start, end));
                job.ok = ok && completed[i];
            }
        }
        (jobs, wall, backlog)
    }

    /// Records one trace per job: `serve.job` from due time to completion
    /// around `serve.submit`, `serve.queue` and `serve.run`.
    fn record_spans(&self, jobs: &[JobTimes]) {
        for job in jobs {
            let Some((start, end)) = job.body else {
                continue;
            };
            let (trace, root) = (self.tracer.fresh_id(), self.tracer.fresh_id());
            self.tracer.record(
                "serve.submit",
                trace,
                Some(root),
                job.submit_start,
                job.submit_end,
            );
            self.tracer.record(
                "serve.queue",
                trace,
                Some(root),
                job.submit_start,
                start.max(job.submit_start),
            );
            self.tracer
                .record("serve.run", trace, Some(root), start, end);
            self.tracer.record_as(
                root,
                "serve.job",
                trace,
                None,
                job.due.min(job.submit_start),
                end.max(job.submit_end),
            );
        }
    }

    fn stop(self) -> (HealthSnapshot, FragmentCacheStats) {
        let stats = self.cache.stats();
        // Release the cache's reservation so the service's ledger drains.
        self.cache.clear();
        (self.service.shutdown(), stats)
    }
}

fn count_jobs(tally: &mut Tally, jobs: &[JobTimes]) {
    jobs.iter().for_each(|j| tally.count(j.ok));
}

fn engine_samples(jobs: &[JobTimes], engine: Engine, f: fn(&JobTimes) -> Option<f64>) -> Vec<f64> {
    jobs.iter()
        .filter(|j| j.spec.engine() == engine)
        .filter_map(f)
        .collect()
}

/// Phase A's numbers: drain throughput, and per engine the rows one job
/// reads over the median seconds its body ran inside the loaded service.
fn phase_a_metrics(layers: &mut Layers, jobs: &[JobTimes], wall: f64, rows: usize) {
    layers.set(
        "jobs_per_s",
        jobs.iter().filter(|j| j.ok).count() as f64 / wall,
    );
    for (engine, name) in [
        (Engine::Staged, "staged_rec_per_s"),
        (Engine::Pipelined, "pipelined_rec_per_s"),
    ] {
        layers.set(
            name,
            rows as f64 / median(&engine_samples(jobs, engine, JobTimes::run_s)),
        );
    }
}

/// Phase B's headline: median latency from due time, averaged over the
/// two engines (the same definition the engine workloads use).
fn phase_b_latency_ms(jobs: &[JobTimes]) -> f64 {
    let p50 = |e| median(&engine_samples(jobs, e, JobTimes::latency_s));
    (p50(Engine::Staged) + p50(Engine::Pipelined)) / 2.0 * 1e3
}

/// Runs the workload in either mode.
pub fn run(opts: &RunOpts, p: usize) -> RunReport {
    let tracer = Arc::new(Tracer::new(opts.trace));
    let mut tally = Tally::default();
    let mut layers = Layers::default();

    let ((data, fragment_bytes), t0, t1) = tracer.time(|| set_up(opts, p, &mut tally));
    tracer.record("setup", tracer.fresh_id(), None, t0, t1);

    let (a_share, b_share) = if opts.trace {
        (TRACED_PHASE_SHARE, TRACED_PHASE_SHARE)
    } else {
        (PHASE_A_SHARE, PHASE_B_SHARE)
    };
    let a_jobs = ((opts.scale.mix_backlog_jobs_per_s * opts.seconds * a_share) as usize).max(8);
    let b_jobs = ((opts.scale.mix_open_rate * opts.seconds * b_share) as usize).max(8);
    let rate = opts.scale.mix_open_rate;
    // A traced run drains the backlog twice — untraced, then traced — so
    // the difference is the tracing overhead.
    let a_rounds = if opts.trace { 2 } else { 1 };

    // Memory after the first pass over the (fixed) job lists; a pass the
    // sentinel repeats would add to it.
    let mut rss_mb = None;
    let ((phases, health, cache_stats), drift, retries) =
        calib::steady(p, opts.scale.calib_iters, || {
            let h = Harness::start(
                opts,
                p,
                Arc::clone(&data),
                fragment_bytes,
                a_jobs.max(b_jobs),
                Arc::clone(&tracer),
            );
            let mut phases = Vec::new();
            for round in 0..a_rounds {
                phases.push(h.phase(round * a_jobs, a_jobs, |_| 0.0));
            }
            phases.push(h.phase(a_rounds * a_jobs, b_jobs, |i| i as f64 / rate));
            phases
                .iter()
                .for_each(|(jobs, ..)| count_jobs(&mut tally, jobs));
            if tracer.on() {
                phases[a_rounds - 1..]
                    .iter()
                    .for_each(|(jobs, ..)| h.record_spans(jobs));
            }
            let (health, cache_stats) = h.stop();
            rss_mb.get_or_insert_with(peak_rss_mb);
            (phases, health, cache_stats)
        });
    let (b_jobs_t, _, backlog) = phases.last().expect("phase B ran");
    let (a_jobs_t, a_wall, _) = &phases[a_rounds - 1];
    let mut notes = vec![
        format!(
            "phase A: {} jobs in {:.3} s; phase B: {} jobs at {} jobs/s",
            a_jobs_t.len(),
            a_wall,
            b_jobs_t.len(),
            rate
        ),
        format!("sentinel drift {drift:.3}, retries {retries}"),
    ];

    if !opts.trace {
        layers.set("setup_s", t1 - t0);
        phase_a_metrics(&mut layers, a_jobs_t, *a_wall, opts.scale.mix_rows);
        layers.set("job_latency_p50_ms", phase_b_latency_ms(b_jobs_t));
        layers.set("peak_rss_mb", rss_mb.expect("the phases ran"));
        notes.push(format!(
            "phase B latency p95 {:.2} ms, n = {}",
            quantile(
                &b_jobs_t
                    .iter()
                    .filter_map(JobTimes::latency_s)
                    .collect::<Vec<_>>(),
                0.95
            ) * 1e3,
            b_jobs_t.len()
        ));
        return RunReport {
            workload: opts.workload.clone(),
            tally,
            metrics: layers.resolve(END_TO_END),
            notes,
            spans: Vec::new(),
        };
    }

    layers.set("datagen.gen_s", data.gen_s);
    let (_, plain_wall, _) = &phases[0];
    layers.set("trace.overhead_share", (a_wall - plain_wall) / plain_wall);
    layers.set("bench.calib_drift", drift);
    layers.set("bench.retries", f64::from(retries));
    layers.set("bench.parallelism", p as f64);
    for engine in Engine::BOTH {
        job_stats(
            &mut layers,
            engine,
            &engine_samples(a_jobs_t, engine, JobTimes::run_s),
        );
    }
    let ms = |jobs: &[JobTimes], f: fn(&JobTimes) -> Option<f64>, q: f64| {
        quantile(&jobs.iter().filter_map(f).collect::<Vec<_>>(), q) * 1e3
    };
    layers.set(
        "serve.submit_us_p50",
        ms(b_jobs_t, |j| Some(j.submit_end - j.submit_start), 0.5) * 1e3,
    );
    layers.set(
        "serve.queue_wait_ms_p50",
        ms(b_jobs_t, JobTimes::queue_wait_s, 0.5),
    );
    layers.set(
        "serve.queue_wait_ms_p95",
        ms(b_jobs_t, JobTimes::queue_wait_s, 0.95),
    );
    layers.set("serve.run_ms_p50", ms(b_jobs_t, JobTimes::run_s, 0.5));
    layers.set(
        "serve.job_latency_p95_ms",
        ms(b_jobs_t, JobTimes::latency_s, 0.95),
    );
    layers.set(
        "serve.generator_lag_ms_p95",
        ms(b_jobs_t, |j| Some((j.submit_start - j.due).max(0.0)), 0.95),
    );
    // Growing: the backlog at the end of the schedule exceeds the one at
    // its middle by more than the workers can hold in flight.
    layers.set(
        "serve.backlog_growing",
        f64::from(u8::from(backlog[1] > backlog[0] + 2 * p)),
    );
    let mean_wait = |t: usize| {
        let th = &health.tenants[t];
        th.queue_wait_micros as f64 / (th.admitted.max(1)) as f64
    };
    let lightest = mean_wait(TENANT_WEIGHTS.len() - 1);
    layers.set("serve.tenant_wait_ratio", lightest / mean_wait(0).max(1.0));
    layers.set("serve.jobs_shed", health.jobs_shed as f64);
    layers.set("serve.job_retries", health.job_retries as f64);
    layers.set("fragcache.hits", cache_stats.hits as f64);
    layers.set("fragcache.misses", cache_stats.misses as f64);
    layers.set(
        "fragcache.hit_ratio",
        cache_stats.hits as f64 / (cache_stats.hits + cache_stats.misses).max(1) as f64,
    );
    layers.set("fragcache.evictions", cache_stats.evictions as f64);
    layers.set("fragcache.bytes_used", cache_stats.bytes_used as f64);
    common_probes(p, &opts.scale, &mut layers);
    // The pool counters that matter here are the shared pool's, which the
    // jobs actually ran on, not the probe pool's.
    set_pool_stats(&mut layers, TaskPool::global());

    RunReport {
        workload: opts.workload.clone(),
        tally,
        metrics: layers.resolve(PER_LAYER),
        notes,
        spans: tracer.spans(),
    }
}
