//! # flowbench
//!
//! The repo's benchmark: seven workloads on both engines, measured only
//! from outside — through public functions of `flowmark-{datagen, columnar,
//! engine, sched, serve, workloads}` — with end-to-end metrics from an
//! untraced run and per-layer metrics from a separate traced run. The
//! names live in [`spec`]; `README.md` says what each one means and which
//! end-to-end number it should move.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod calib;
pub mod engines;
pub mod serve_mix;
pub mod spec;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use flowmark_columnar::checksum::Xxh64;
use flowmark_sched::TaskPool;
use serde::Value;

use engines::{Engine, EngineWorkload, Generated, JobCfg, Rep, StreamTimes};
use spec::{MetricSpec, Scale, END_TO_END, PER_LAYER};
use stats::{median, supported_tail};
use trace::{Span, Tracer};

/// Operations attempted and failed. A job whose output diverges from the
/// oracle, is refused, or does not complete counts as failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Median seconds of `f` over `reps` runs; `setup` builds each run's input
/// outside the timed interval.
pub fn probe_median<I, O>(
    reps: usize,
    mut setup: impl FnMut() -> I,
    mut f: impl FnMut(I) -> O,
) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            let out = f(black_box(input));
            let s = start.elapsed().as_secs_f64();
            black_box(out);
            s
        })
        .collect();
    median(&samples)
}

/// What the instrumentation alone costs: mean seconds of an empty
/// start/stop pair. A layer a workload never enters reports this rather
/// than a literal 0, so every time in the output is a measurement.
fn timer_floor() -> f64 {
    const PAIRS: u32 = 1024;
    let start = Instant::now();
    for _ in 0..PAIRS {
        black_box(Instant::now().elapsed());
    }
    start.elapsed().as_secs_f64() / f64::from(PAIRS)
}

/// Metric values by name. Names must be declared in [`spec`].
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Sets a metric. Panics on a name `spec` does not declare — a typo
    /// would otherwise silently read as "layer not entered".
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric {name} is not declared in spec"
        );
        self.values.insert(name, value);
    }

    /// A metric set earlier.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Times `f` as [`probe_median`] does and stores the median seconds.
    pub fn probe<I, O>(
        &mut self,
        name: &'static str,
        reps: usize,
        setup: impl FnMut() -> I,
        f: impl FnMut(I) -> O,
    ) {
        self.set(name, probe_median(reps, setup, f));
    }

    /// The values of `specs`, in order. A missing time reads the timer
    /// floor in the metric's unit; anything else missing reads 0.
    fn resolve(&self, specs: &[MetricSpec]) -> Vec<(MetricSpec, f64)> {
        specs
            .iter()
            .map(|m| {
                let v = self.get(m.name).unwrap_or_else(|| {
                    spec::time_unit_seconds(m.unit).map_or(0.0, |unit_s| timer_floor() / unit_s)
                });
                (*m, v)
            })
            .collect()
    }
}

/// One `flowbench run` invocation.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload name, one of [`spec::WORKLOADS`].
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds the measurement windows last in total.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// What one run measured.
#[derive(Debug)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Every metric of the run's mode, in `spec` order.
    pub metrics: Vec<(MetricSpec, f64)>,
    /// Human-readable lines: sample counts, tails, sentinel readings.
    pub notes: Vec<String>,
    /// Spans recorded (traced run only).
    pub spans: Vec<Span>,
}

impl RunReport {
    /// The result object the benchmark prints as its last line.
    pub fn result_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(m, v)| {
                let fields = vec![
                    ("value".to_owned(), Value::Float(*v)),
                    ("unit".to_owned(), Value::Str(m.unit.to_owned())),
                ];
                (m.name.to_owned(), Value::Object(fields))
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.tally.failed == 0)),
            ("attempted".into(), Value::UInt(self.tally.attempted)),
            ("failed".into(), Value::UInt(self.tally.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }
}

/// `min(nproc, P_CAP)`.
pub fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(spec::P_CAP)
}

/// `VmHWM` of this process in MiB; 0 where `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Share of `--seconds` each window of a traced run lasts.
const TRACE_WINDOW_SHARE: f64 = 0.3;
/// Repetitions at parallelism 1.
const P1_REPS: usize = 3;

/// Runs one workload and reports its metrics.
pub fn run(opts: &RunOpts) -> Result<RunReport, String> {
    if !spec::WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {}", opts.workload));
    }
    let p = parallelism();
    let mut report = match (opts.workload.as_str(), opts.trace) {
        ("serve-mix", _) => serve_mix::run(opts, p),
        (_, false) => run_engine_end_to_end(opts, p),
        (_, true) => run_engine_traced(opts, p),
    };
    report.notes.insert(
        0,
        format!("parallelism {p}, seed {}, {} s", opts.seed, opts.seconds),
    );
    Ok(report)
}

/// Generates the workload and runs one untimed warm-up job per engine.
/// Returns the workload and the seconds the whole set-up took.
fn set_up(opts: &RunOpts, p: usize, tracer: &Tracer, tally: &mut Tally) -> (Generated, f64) {
    let t0 = tracer.now();
    let generated = engines::generate(&opts.workload, opts.seed, &opts.scale)
        .expect("caller checked the workload name");
    let t1 = tracer.now();
    let warm: Vec<Rep> = Engine::BOTH
        .iter()
        .map(|&e| {
            generated
                .workload
                .run(e, JobCfg { p, traced: false }, tracer)
        })
        .collect();
    let t2 = tracer.now();
    warm.iter().for_each(|r| tally.count(r.ok));
    if tracer.on() {
        let (trace, root) = (tracer.fresh_id(), tracer.fresh_id());
        let gen_end = t0 + generated.gen_s;
        tracer.record("setup.datagen", trace, Some(root), t0, gen_end);
        tracer.record("setup.oracle", trace, Some(root), gen_end, t1);
        for (e, r) in Engine::BOTH.iter().zip(&warm) {
            tracer.record(
                &format!("setup.warmup.{}", e.name()),
                trace,
                Some(root),
                r.start_s,
                r.end_s,
            );
        }
        tracer.record_as(root, "setup", trace, None, t0, t2);
    }
    (generated, t2 - t0)
}

/// One measurement window: timed jobs alternating staged / pipelined, so
/// drift hits both engines alike.
struct Window {
    /// The repetitions, per engine in [`Engine::BOTH`] order.
    reps: [Vec<Rep>; 2],
    /// `VmHWM` once both engines had run `min_reps` timed jobs: memory
    /// after a fixed amount of work. At exit it would depend on how many
    /// repetitions the window's seconds happened to hold (measured on
    /// `grep`: 237, 269 or 301 MiB as the count grows).
    rss_mb: f64,
    /// Ambient drift the sentinel saw across the window.
    drift: f64,
    /// How often the window was measured again.
    retries: u32,
}

impl Window {
    fn seconds(&self, engine: Engine) -> Vec<f64> {
        self.reps[engine as usize]
            .iter()
            .map(Rep::seconds)
            .collect()
    }

    fn median_s(&self, engine: Engine) -> f64 {
        median(&self.seconds(engine))
    }

    /// Median seconds of the named sub-interval of `engine`'s jobs.
    fn part_median_s(&self, engine: Engine, part: &str) -> Option<f64> {
        let samples: Vec<f64> = self.reps[engine as usize]
            .iter()
            .flat_map(|r| &r.parts)
            .filter(|(name, ..)| *name == part)
            .map(|(_, s, e)| e - s)
            .collect();
        (!samples.is_empty()).then(|| median(&samples))
    }
}

/// Measures one window of at least `seconds` and `min_reps` jobs per
/// engine, under the ambient-noise sentinel ([`calib::steady`]).
fn window(
    w: &dyn EngineWorkload,
    cfg: JobCfg,
    seconds: f64,
    scale: &Scale,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Window {
    let min_reps = scale.min_reps;
    let mut rss_mb = None;
    let (reps, drift, retries) = calib::steady(cfg.p, scale.calib_iters, || {
        let mut reps: [Vec<Rep>; 2] = [Vec::new(), Vec::new()];
        let start = Instant::now();
        while reps[1].len() < min_reps || start.elapsed().as_secs_f64() < seconds {
            for engine in Engine::BOTH {
                let rep = w.run(engine, cfg, tracer);
                tally.count(rep.ok);
                if tracer.on() {
                    let (trace, root) = (tracer.fresh_id(), tracer.fresh_id());
                    for (name, s, e) in &rep.parts {
                        tracer.record(name, trace, Some(root), *s, *e);
                    }
                    tracer.record_as(
                        root,
                        &format!("job.{}", engine.name()),
                        trace,
                        None,
                        rep.start_s,
                        rep.end_s,
                    );
                }
                reps[engine as usize].push(rep);
            }
            if reps[1].len() == min_reps {
                rss_mb.get_or_insert_with(peak_rss_mb);
            }
        }
        reps
    });
    Window {
        reps,
        rss_mb: rss_mb.expect("a window runs min_reps jobs"),
        drift,
        retries,
    }
}

/// A line describing one engine's job timings: median, the highest
/// percentile with ten samples beyond it, and the sample count.
fn timing_note(engine: Engine, samples: &[f64]) -> String {
    let tail = supported_tail(samples).map_or("tail unsupported".to_owned(), |(q, v)| {
        format!("p{:.0} {:.4} s", q * 100.0, v)
    });
    format!(
        "{} job: median {:.4} s, {tail}, n = {}",
        engine.name(),
        median(samples),
        samples.len()
    )
}

/// The four throughput/latency metrics every engine workload derives from
/// its two job-time medians: a closed loop of one client alternating
/// engines.
fn engine_end_to_end(layers: &mut Layers, records: u64, staged_s: f64, pipelined_s: f64) {
    layers.set("staged_rec_per_s", records as f64 / staged_s);
    layers.set("pipelined_rec_per_s", records as f64 / pipelined_s);
    layers.set("jobs_per_s", 2.0 / (staged_s + pipelined_s));
    layers.set("job_latency_p50_ms", (staged_s + pipelined_s) / 2.0 * 1e3);
}

fn run_engine_end_to_end(opts: &RunOpts, p: usize) -> RunReport {
    let tracer = Tracer::new(false);
    let mut tally = Tally::default();
    let (generated, setup_s) = set_up(opts, p, &tracer, &mut tally);
    let w = generated.workload;
    let cfg = JobCfg { p, traced: false };
    let win = window(
        w.as_ref(),
        cfg,
        opts.seconds,
        &opts.scale,
        &tracer,
        &mut tally,
    );

    let mut layers = Layers::default();
    layers.set("setup_s", setup_s);
    engine_end_to_end(
        &mut layers,
        w.records(),
        win.median_s(Engine::Staged),
        win.median_s(Engine::Pipelined),
    );
    layers.set("peak_rss_mb", win.rss_mb);
    let mut notes: Vec<String> = Engine::BOTH
        .iter()
        .map(|&e| timing_note(e, &win.seconds(e)))
        .collect();
    notes.push(format!(
        "sentinel drift {:.3}, window retries {}",
        win.drift, win.retries
    ));
    RunReport {
        workload: opts.workload.clone(),
        tally,
        metrics: layers.resolve(END_TO_END),
        notes,
        spans: Vec::new(),
    }
}

/// Stores an engine's job-time statistics from a window.
fn job_stats(layers: &mut Layers, engine: Engine, samples: &[f64]) {
    let [p50, tail, n] = match engine {
        Engine::Staged => [
            "staged.job_s_p50",
            "staged.job_s_tail",
            "staged.job_samples",
        ],
        Engine::Pipelined => [
            "pipelined.job_s_p50",
            "pipelined.job_s_tail",
            "pipelined.job_samples",
        ],
    };
    layers.set(p50, median(samples));
    // Below 22 samples no percentile above the median has ten samples
    // beyond it; the tail then repeats the median.
    layers.set(
        tail,
        supported_tail(samples).map_or_else(|| median(samples), |(_, v)| v),
    );
    layers.set(n, samples.len() as f64);
}

/// Probes shared by every workload: checksum throughput (seal and verify
/// cost everywhere) and task dispatch on a private pool.
pub(crate) fn common_probes(p: usize, scale: &Scale, layers: &mut Layers) {
    let block = vec![0xA5u8; (8 << 20).min(scale.checksum_bytes)];
    let blocks = scale.checksum_bytes.div_ceil(block.len());
    let s = probe_median(
        scale.probe_reps,
        || (),
        |()| {
            let mut h = Xxh64::new(7);
            (0..blocks).for_each(|_| h.write(black_box(&block)));
            h.finish()
        },
    );
    layers.set(
        "columnar.checksum_mb_per_s",
        (blocks * block.len()) as f64 / (1u64 << 20) as f64 / s,
    );

    let pool = TaskPool::new(p);
    let s = probe_median(
        scale.probe_reps,
        || (),
        |()| {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..scale.pool_tasks)
                .map(|_| Box::new(|| ()) as Box<dyn FnOnce() + Send>)
                .collect();
            pool.run_batch(tasks)
        },
    );
    layers.set(
        "pool.dispatch_us_per_task",
        s * 1e6 / scale.pool_tasks as f64,
    );
    set_pool_stats(layers, &pool);
}

/// Stores a pool's steal count and its mean queue wait per task.
pub(crate) fn set_pool_stats(layers: &mut Layers, pool: &TaskPool) {
    let stats = pool.stats();
    layers.set("pool.tasks_stolen", stats.tasks_stolen as f64);
    layers.set(
        "pool.queue_wait_ms",
        stats.queue_wait_micros as f64 / 1e3 / stats.tasks_executed.max(1) as f64,
    );
}

fn run_engine_traced(opts: &RunOpts, p: usize) -> RunReport {
    let (tracer, off) = (Tracer::new(true), Tracer::new(false));
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    let (generated, _) = set_up(opts, p, &tracer, &mut tally);
    layers.set("datagen.gen_s", generated.gen_s);
    let w = generated.workload;
    let seconds = opts.seconds * TRACE_WINDOW_SHARE;

    // Untraced first: it is the reference the traced window is compared to.
    let plain = window(
        w.as_ref(),
        JobCfg { p, traced: false },
        seconds,
        &opts.scale,
        &off,
        &mut tally,
    );
    StreamTimes::take();
    let traced = window(
        w.as_ref(),
        JobCfg { p, traced: true },
        seconds,
        &opts.scale,
        &tracer,
        &mut tally,
    );
    let stream = StreamTimes::take();

    let both = |win: &Window| win.median_s(Engine::Staged) + win.median_s(Engine::Pipelined);
    layers.set(
        "trace.overhead_share",
        (both(&traced) - both(&plain)) / both(&plain),
    );
    layers.set("bench.calib_drift", plain.drift.max(traced.drift));
    layers.set("bench.retries", f64::from(plain.retries + traced.retries));
    layers.set("bench.parallelism", p as f64);
    for engine in Engine::BOTH {
        job_stats(&mut layers, engine, &traced.seconds(engine));
    }
    for (engine, part, name) in [
        (
            Engine::Staged,
            "graph.pagerank",
            "iterate.pagerank_staged_s",
        ),
        (
            Engine::Pipelined,
            "graph.pagerank",
            "iterate.pagerank_pipelined_s",
        ),
        (
            Engine::Staged,
            "graph.connected",
            "iterate.connected_staged_s",
        ),
        (
            Engine::Pipelined,
            "graph.connected",
            "iterate.connected_pipelined_s",
        ),
    ] {
        if let Some(s) = traced.part_median_s(engine, part) {
            layers.set(name, s);
        }
    }

    // Counters of one staged job plus one pipelined job; they repeat
    // exactly for a given seed.
    let last = |e: Engine| {
        traced.reps[e as usize]
            .last()
            .expect("min_reps >= 1")
            .counters
    };
    let (s, f) = (last(Engine::Staged), last(Engine::Pipelined));
    let sum = |get: fn(&flowmark_engine::MetricsSnapshot) -> u64| (get(&s) + get(&f)) as f64;
    layers.set("shuffle.records", sum(|c| c.records_shuffled));
    layers.set("shuffle.bytes", sum(|c| c.bytes_shuffled));
    layers.set(
        "shuffle.batches_sealed",
        sum(|c| c.recovery.batches_checksummed),
    );
    let combine_in = sum(|c| c.combine_input);
    layers.set(
        "shuffle.combine_ratio",
        if combine_in > 0.0 {
            sum(|c| c.combine_output) / combine_in
        } else {
            1.0
        },
    );
    layers.set("iterate.supersteps", sum(|c| c.iterations_run));
    layers.set("iterate.messages_combined", sum(|c| c.messages_combined));
    layers.set("staged.tasks_launched", s.tasks_launched as f64);
    layers.set("staged.cache_hits", s.cache_hits as f64);
    layers.set("pipelined.backpressure_waits", f.backpressure_waits as f64);
    layers.set(
        "streaming.checkpoints",
        sum(|c| c.recovery.checkpoints_taken),
    );
    layers.set(
        "streaming.snapshot_bytes",
        sum(|c| c.recovery.checkpoint_bytes),
    );
    layers.set("streaming.stream_batches", sum(|c| c.stream_batches));
    layers.set("streaming.windows_emitted", sum(|c| c.windows_emitted));
    layers.set("streaming.late_dropped", sum(|c| c.late_events_dropped));
    if opts.workload == "nexmark" {
        // Operator seconds per round (one staged plus one pipelined job),
        // summed over the tasks of each job.
        let rounds = traced.reps[0].len() as f64;
        layers.set("streaming.operator_fold_s", stream.fold_s / rounds);
        layers.set("streaming.window_fire_s", stream.fire_s / rounds);
        layers.set("streaming.snapshot_s", stream.snapshot_s / rounds);
    }

    // Parallelism 1 separates kernel gains (both rates move) from
    // scheduling gains (only the rate at P moves).
    let records = w.records() as f64;
    for (engine, p1_name, eff_name) in [
        (
            Engine::Staged,
            "staged.p1_rec_per_s",
            "staged.parallel_efficiency",
        ),
        (
            Engine::Pipelined,
            "pipelined.p1_rec_per_s",
            "pipelined.parallel_efficiency",
        ),
    ] {
        let times: Vec<f64> = (0..P1_REPS.min(opts.scale.probe_reps.max(1)))
            .map(|_| {
                let rep = w.run(
                    engine,
                    JobCfg {
                        p: 1,
                        traced: false,
                    },
                    &off,
                );
                tally.count(rep.ok);
                rep.seconds()
            })
            .collect();
        let p1_rate = records / median(&times);
        layers.set(p1_name, p1_rate);
        layers.set(
            eff_name,
            records / plain.median_s(engine) / (p as f64 * p1_rate),
        );
    }

    let mut probes = Layers::default();
    tally.merge(w.probe(p, opts.scale.probe_reps, &mut probes));
    // What the probes cannot see: map UDFs private to the workload crate,
    // task spawn, and waiting at exchanges.
    let probed_s: f64 = PER_LAYER
        .iter()
        .filter(|m| m.unit == "s")
        .filter_map(|m| probes.get(m.name))
        .sum();
    layers.set(
        "engine.unattributed_s",
        plain.median_s(Engine::Staged) - probed_s / p as f64,
    );
    layers.values.append(&mut probes.values);
    common_probes(p, &opts.scale, &mut layers);

    let mut notes: Vec<String> = Engine::BOTH
        .iter()
        .map(|&e| timing_note(e, &traced.seconds(e)))
        .collect();
    notes.push(format!(
        "sentinel drift {:.3}",
        plain.drift.max(traced.drift)
    ));
    RunReport {
        workload: opts.workload.clone(),
        tally,
        metrics: layers.resolve(PER_LAYER),
        notes,
        spans: tracer.spans(),
    }
}
