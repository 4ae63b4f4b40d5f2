//! The six engine workloads: generated inputs, sequential oracles, one job
//! per engine, and the single-threaded layer probes that replay each job's
//! step sequence through the layers' public functions.
//!
//! Everything here calls the program from outside. The copy of the input a
//! `run_*` call consumes is made before the timer starts and the oracle
//! comparison happens after it stops.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use flowmark_columnar::checksum::Xxh64;
use flowmark_columnar::{
    kernels, route_rows, F64Batch, StrColumn, StrU64Batch, DEFAULT_BATCH_ROWS,
};
use flowmark_datagen::graph::{RmatGen, RmatParams};
use flowmark_datagen::nexmark::{self, NexmarkConfig, NexmarkEvent};
use flowmark_datagen::points::{Point, PointsConfig, PointsGen};
use flowmark_datagen::terasort::{range_partition, sample_split_points, Record, TeraGen};
use flowmark_datagen::text::{TextGen, TextGenConfig};
use flowmark_engine::faults::{CancelToken, FaultConfig, FaultPlan};
use flowmark_engine::hash::{fx_map_with_capacity, FxHashMap, FxHasher64};
use flowmark_engine::shuffle::{self, Sealed};
use flowmark_engine::streaming::runtime::{
    run_continuous_checkpointed, run_micro_batch_checkpointed, StreamJobConfig,
};
use flowmark_engine::streaming::source::shuffle_bounded;
use flowmark_engine::streaming::window::StreamOperator;
use flowmark_engine::streaming::{SourceConfig, StreamEvent, StreamSource};
use flowmark_engine::{
    EngineConfig, EngineMetrics, FlinkEnv, MetricsSnapshot, PartitionedGraph, SparkContext,
};
use flowmark_workloads::connected::{self, CcVariant};
use flowmark_workloads::stream::{
    canonical, nexmark_source, q3_oracle, q6_operator, q6_oracle, route_nexmark, Q3Join, Q3Row,
};
use flowmark_workloads::{grep, kmeans, pagerank, terasort, wordcount};

use crate::spec::Scale;
use crate::trace::Tracer;
use crate::{Layers, Tally};

/// Which engine a job runs on. On `nexmark` the staged engine is the
/// micro-batch runtime and the pipelined engine the continuous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Staged execution with shuffle barriers (`SparkContext`).
    Staged,
    /// Pipelined execution over bounded channels (`FlinkEnv`).
    Pipelined,
}

impl Engine {
    /// Both engines, in the order a window alternates them.
    pub const BOTH: [Engine; 2] = [Engine::Staged, Engine::Pipelined];

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Staged => "staged",
            Engine::Pipelined => "pipelined",
        }
    }
}

/// How one job repetition is run.
#[derive(Debug, Clone, Copy)]
pub struct JobCfg {
    /// Engine parallelism and partitions.
    pub p: usize,
    /// Whether the benchmark-side instrumentation that costs something
    /// (the streaming `Timed` operator wrapper) is switched on.
    pub traced: bool,
}

/// One timed job repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Start of the timed interval on the tracer's clock.
    pub start_s: f64,
    /// End of the timed interval on the tracer's clock.
    pub end_s: f64,
    /// Whether the output matched the oracle.
    pub ok: bool,
    /// The job's engine counters.
    pub counters: MetricsSnapshot,
    /// Named sub-intervals of the job, as `(name, start, end)`.
    pub parts: Vec<(&'static str, f64, f64)>,
}

impl Rep {
    /// Seconds the job took.
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An engine workload: inputs, oracle, jobs and probes.
pub trait EngineWorkload {
    /// Input records one job processes.
    fn records(&self) -> u64;
    /// Runs one job and checks its output.
    fn run(&self, engine: Engine, cfg: JobCfg, tracer: &Tracer) -> Rep;
    /// Replays the job's steps through the layers' public functions,
    /// single-threaded, and stores each layer's median seconds.
    fn probe(&self, p: usize, reps: usize, layers: &mut Layers) -> Tally;
}

/// A generated workload and what generating it cost.
pub struct Generated {
    /// The workload.
    pub workload: Box<dyn EngineWorkload>,
    /// Seconds in the `flowmark-datagen` generators.
    pub gen_s: f64,
    /// Seconds computing the sequential oracle.
    pub oracle_s: f64,
}

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Generates the named engine workload from `seed`; `None` for a name that
/// is not an engine workload.
pub fn generate(name: &str, seed: u64, scale: &Scale) -> Option<Generated> {
    let (workload, gen_s, oracle_s): (Box<dyn EngineWorkload>, f64, f64) = match name {
        "wordcount" => {
            let (lines, g) =
                secs(|| TextGen::new(TextGenConfig::default(), seed).lines(scale.wc_lines));
            let (expect, o) = secs(|| wordcount::oracle(&lines));
            (Box::new(WordCount { lines, expect }), g, o)
        }
        "grep" => {
            let config = TextGenConfig {
                needle_selectivity: 0.05,
                ..TextGenConfig::default()
            };
            let needle = config.needle.clone();
            let (lines, g) = secs(|| TextGen::new(config, seed).lines(scale.grep_lines));
            let (expect, o) = secs(|| grep::oracle(&lines, &needle));
            (
                Box::new(Grep {
                    lines,
                    needle,
                    expect,
                }),
                g,
                o,
            )
        }
        "terasort" => {
            let (records, g) = secs(|| TeraGen::new(seed).records(scale.ts_records));
            let (expect_keys, o) = secs(|| {
                terasort::oracle(records.clone())
                    .iter()
                    .map(|r| r.key().to_vec())
                    .collect()
            });
            (
                Box::new(TeraSort {
                    records,
                    expect_keys,
                }),
                g,
                o,
            )
        }
        "kmeans" => {
            let ((points, init), g) = secs(|| {
                let mut gen = PointsGen::new(PointsConfig::default(), seed);
                let init = gen.true_centers().to_vec();
                (gen.points(scale.km_points), init)
            });
            let rounds = scale.km_rounds;
            let (expect, o) = secs(|| kmeans::oracle(&points, init.clone(), rounds));
            (
                Box::new(KMeans {
                    points,
                    init,
                    rounds,
                    expect,
                }),
                g,
                o,
            )
        }
        "graph" => {
            let (edges, g) = secs(|| {
                RmatGen::new(scale.rmat_scale, RmatParams::default(), seed).edges(scale.graph_edges)
            });
            let rounds = scale.pr_rounds;
            let ((ranks, labels), o) =
                secs(|| (pagerank::oracle(&edges, rounds), connected::oracle(&edges)));
            (
                Box::new(Graph {
                    edges,
                    rounds,
                    ranks,
                    labels,
                }),
                g,
                o,
            )
        }
        "nexmark" => {
            let ((q3, q6), g) = secs(|| {
                (
                    stream_dataset(seed ^ 0x51_33, scale.q3_events),
                    stream_dataset(seed ^ 0x51_66, scale.q6_events),
                )
            });
            let ((q3_expect, q6_expect), o) = secs(|| (q3_oracle(&q3), q6_oracle(&q6)));
            (
                Box::new(Nexmark {
                    q3,
                    q6,
                    q3_expect,
                    q6_expect,
                }),
                g,
                o,
            )
        }
        _ => return None,
    };
    Some(Generated {
        workload,
        gen_s,
        oracle_s,
    })
}

/// A timed job whose output has not been compared with the oracle yet.
struct Ran<O> {
    out: O,
    start_s: f64,
    end_s: f64,
    counters: MetricsSnapshot,
    parts: Vec<(&'static str, f64, f64)>,
}

impl<O> Ran<O> {
    /// Compares the output with the oracle, after the timer has stopped.
    fn check(self, ok: impl FnOnce(&O) -> bool) -> Rep {
        Rep {
            start_s: self.start_s,
            end_s: self.end_s,
            ok: ok(&self.out),
            counters: self.counters,
            parts: self.parts,
        }
    }
}

/// Builds the engine `engine` names at parallelism `cfg.p` (default
/// executor, clean fault plan), times `staged` or `pipelined` on it with
/// `input`, and snapshots the engine's counters.
fn on_engine<I, O>(
    engine: Engine,
    cfg: JobCfg,
    tracer: &Tracer,
    input: I,
    staged: impl FnOnce(&SparkContext, I) -> O,
    pipelined: impl FnOnce(&FlinkEnv, I) -> O,
) -> Ran<O> {
    let config = EngineConfig::with_parallelism(cfg.p);
    let (out, start_s, end_s, counters) = match engine {
        Engine::Staged => {
            let sc = SparkContext::with_config(&config);
            let (out, s, e) = tracer.time(|| staged(&sc, input));
            (out, s, e, sc.metrics().snapshot())
        }
        Engine::Pipelined => {
            let env = FlinkEnv::with_config(&config);
            let (out, s, e) = tracer.time(|| pipelined(&env, input));
            (out, s, e, env.metrics().snapshot())
        }
    };
    Ran {
        out,
        start_s,
        end_s,
        counters,
        parts: Vec::new(),
    }
}

// --- wordcount ---------------------------------------------------------------

struct WordCount {
    lines: Vec<String>,
    expect: HashMap<String, u64>,
}

/// Word routing as the workload does it: FxHash of the word, modulo the
/// reducer count.
fn word_partition(word: &str, parts: usize) -> usize {
    let mut h = FxHasher64::default();
    word.hash(&mut h);
    (h.finish() as usize) % parts
}

impl EngineWorkload for WordCount {
    fn records(&self) -> u64 {
        self.lines.len() as u64
    }

    fn run(&self, engine: Engine, cfg: JobCfg, tracer: &Tracer) -> Rep {
        on_engine(
            engine,
            cfg,
            tracer,
            self.lines.clone(),
            |sc, lines| wordcount::run_spark(sc, lines, cfg.p),
            wordcount::run_flink,
        )
        .check(|out| *out == self.expect)
    }

    fn probe(&self, p: usize, reps: usize, layers: &mut Layers) -> Tally {
        let seed = FaultPlan::disabled().checksum_seed();
        let metrics = EngineMetrics::new();
        layers.probe(
            "columnar.batch_decode_s",
            reps,
            || (),
            |()| StrColumn::batches_from_lines(&self.lines, DEFAULT_BATCH_ROWS),
        );
        let batches = StrColumn::batches_from_lines(&self.lines, DEFAULT_BATCH_ROWS);
        // The map UDF (tokenize + local count) is private to the workload
        // crate; replayed here untimed to obtain the combined pairs.
        let combined: Vec<StrU64Batch> = map_chunks(&batches, p)
            .map(|cols| {
                let mut counts: FxHashMap<String, u64> = fx_map_with_capacity(1024);
                for w in cols
                    .iter()
                    .flat_map(StrColumn::iter)
                    .flat_map(str::split_whitespace)
                {
                    match counts.get_mut(w) {
                        Some(c) => *c += 1,
                        None => {
                            counts.insert(w.to_owned(), 1);
                        }
                    }
                }
                StrU64Batch::from_pairs(counts)
            })
            .collect();
        layers.probe(
            "columnar.route_s",
            reps,
            || (),
            |()| {
                combined
                    .iter()
                    .map(|b| b.partition_by(p, |w| word_partition(w, p)))
                    .collect::<Vec<_>>()
            },
        );
        let routed: Vec<Vec<StrU64Batch>> = combined
            .iter()
            .map(|b| b.partition_by(p, |w| word_partition(w, p)))
            .collect();
        let reduce_inputs = probe_shuffle(routed, |b| b.len(), seed, &metrics, reps, layers);
        layers.probe(
            "columnar.merge_s",
            reps,
            || (),
            |()| {
                reduce_inputs
                    .iter()
                    .map(|bs| {
                        let total: usize = bs.iter().map(|(_, b)| b.len()).sum();
                        let mut agg: FxHashMap<String, u64> = fx_map_with_capacity(total);
                        for (_, b) in bs {
                            b.merge_into(&mut agg, |a, v| *a += v);
                        }
                        agg
                    })
                    .collect::<Vec<_>>()
            },
        );
        Tally::default()
    }
}

/// Splits a job's source batches into `p` contiguous map-task chunks, the
/// way both engines' sources split a collection.
fn map_chunks<T>(items: &[T], p: usize) -> impl Iterator<Item = &[T]> {
    items.chunks(items.len().div_ceil(p).max(1))
}

/// Probes the exchange path on `routed` (`[map task][reducer]` batches):
/// seal every batch, regroup by reducer, verify every batch. Stores
/// `shuffle.{seal,exchange,verify}_s` and `shuffle.partition_skew`, and
/// returns the reducers' sealed inputs.
fn probe_shuffle<B: flowmark_columnar::Checksummable + Clone>(
    routed: Vec<Vec<B>>,
    rows: impl Fn(&B) -> usize,
    seed: u64,
    metrics: &EngineMetrics,
    reps: usize,
    layers: &mut Layers,
) -> Vec<Vec<Sealed<B>>> {
    let reducers = routed.first().map_or(0, Vec::len);
    let mut per_reducer = vec![0usize; reducers];
    for task in &routed {
        for (r, b) in task.iter().enumerate() {
            per_reducer[r] += rows(b);
        }
    }
    let total: usize = per_reducer.iter().sum();
    if total > 0 {
        let max = per_reducer.iter().copied().max().unwrap_or(0);
        layers.set(
            "shuffle.partition_skew",
            max as f64 * reducers as f64 / total as f64,
        );
    }
    let seal_all = |routed: Vec<Vec<B>>| -> Vec<Vec<Vec<Sealed<B>>>> {
        routed
            .into_iter()
            .map(|task| {
                task.into_iter()
                    .map(|b| vec![shuffle::seal(b, seed, metrics)])
                    .collect()
            })
            .collect()
    };
    layers.probe("shuffle.seal_s", reps, || routed.clone(), &seal_all);
    let sealed = seal_all(routed);
    layers.probe(
        "shuffle.exchange_s",
        reps,
        || sealed.clone(),
        shuffle::exchange,
    );
    let reduce_inputs = shuffle::exchange(sealed);
    layers.probe(
        "shuffle.verify_s",
        reps,
        || (),
        |()| {
            reduce_inputs
                .iter()
                .flatten()
                .filter(|s| shuffle::verify(s, seed))
                .count()
        },
    );
    reduce_inputs
}

// --- grep --------------------------------------------------------------------

struct Grep {
    lines: Vec<String>,
    needle: String,
    expect: u64,
}

impl EngineWorkload for Grep {
    fn records(&self) -> u64 {
        self.lines.len() as u64
    }

    fn run(&self, engine: Engine, cfg: JobCfg, tracer: &Tracer) -> Rep {
        let expect = self.expect;
        on_engine(
            engine,
            cfg,
            tracer,
            self.lines.clone(),
            |sc, lines| grep::run_spark(sc, lines, &self.needle, cfg.p),
            |env, lines| grep::run_flink(env, lines, &self.needle),
        )
        .check(|&out| out == expect)
    }

    fn probe(&self, _p: usize, reps: usize, layers: &mut Layers) -> Tally {
        let seed = FaultPlan::disabled().checksum_seed();
        let metrics = EngineMetrics::new();
        let decode = || StrColumn::batches_from_lines(&self.lines, DEFAULT_BATCH_ROWS);
        layers.probe("columnar.batch_decode_s", reps, || (), |()| decode());
        // Grep has no exchange: its source batches are sealed by the driver
        // and verified by every task that reads them.
        let seal = |batches: Vec<StrColumn>| -> Vec<Sealed<StrColumn>> {
            batches
                .into_iter()
                .map(|b| shuffle::seal(b, seed, &metrics))
                .collect()
        };
        layers.probe("shuffle.seal_s", reps, decode, seal);
        let sealed = seal(decode());
        layers.probe(
            "shuffle.verify_s",
            reps,
            || (),
            |()| sealed.iter().filter(|s| shuffle::verify(s, seed)).count(),
        );
        let needle = self.needle.as_bytes();
        layers.probe(
            "columnar.filter_s",
            reps,
            || (),
            |()| {
                sealed
                    .iter()
                    .map(|(_, col)| kernels::filter_str_contains(col, needle, None, None).len())
                    .sum::<usize>()
            },
        );
        Tally::default()
    }
}

// --- terasort ----------------------------------------------------------------

struct TeraSort {
    records: Vec<Record>,
    expect_keys: Vec<Vec<u8>>,
}

impl EngineWorkload for TeraSort {
    fn records(&self) -> u64 {
        self.records.len() as u64
    }

    fn run(&self, engine: Engine, cfg: JobCfg, tracer: &Tracer) -> Rep {
        let n = self.records.len();
        on_engine(
            engine,
            cfg,
            tracer,
            self.records.clone(),
            |sc, records| terasort::run_spark(sc, records, cfg.p),
            |env, records| terasort::run_flink(env, records, cfg.p),
        )
        .check(|out| {
            terasort::validate_output(n, out).is_ok()
                && out
                    .iter()
                    .flatten()
                    .map(Record::key)
                    .eq(self.expect_keys.iter().map(Vec::as_slice))
        })
    }

    fn probe(&self, p: usize, reps: usize, layers: &mut Layers) -> Tally {
        let seed = FaultPlan::disabled().checksum_seed();
        let metrics = EngineMetrics::new();
        let splits = sample_split_points(&self.records, p, 10_000);
        let route = |chunks: Vec<Vec<Record>>| -> Vec<Vec<Vec<Record>>> {
            chunks
                .into_iter()
                .map(|rows| route_rows(rows, p, |r| range_partition(r.key(), &splits)))
                .collect()
        };
        let chunks = || {
            map_chunks(&self.records, p)
                .map(<[Record]>::to_vec)
                .collect::<Vec<_>>()
        };
        layers.probe("columnar.route_s", reps, chunks, route);
        let reduce_inputs = probe_shuffle(route(chunks()), Vec::len, seed, &metrics, reps, layers);
        // Key-prefix extraction is private to the workload crate; replayed
        // untimed so the probe times the radix kernel alone.
        let prefixes: Vec<Vec<u64>> = reduce_inputs
            .iter()
            .map(|bs| {
                bs.iter()
                    .flat_map(|(_, b)| b.iter())
                    .map(|r| {
                        let k = r.key();
                        u64::from(u32::from_be_bytes([k[0], k[1], k[2], k[3]]))
                    })
                    .collect()
            })
            .collect();
        layers.probe(
            "columnar.radix_sort_s",
            reps,
            || (),
            |()| {
                prefixes
                    .iter()
                    .map(|keys| kernels::radix_sort_u64(keys))
                    .collect::<Vec<_>>()
            },
        );
        Tally::default()
    }
}

// --- kmeans ------------------------------------------------------------------

struct KMeans {
    points: Vec<Point>,
    init: Vec<Point>,
    rounds: u32,
    expect: Vec<Point>,
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

impl EngineWorkload for KMeans {
    fn records(&self) -> u64 {
        self.points.len() as u64
    }

    fn run(&self, engine: Engine, cfg: JobCfg, tracer: &Tracer) -> Rep {
        on_engine(
            engine,
            cfg,
            tracer,
            (self.points.clone(), self.init.clone()),
            |sc, (points, init)| kmeans::run_spark(sc, points, init, self.rounds, cfg.p),
            |env, (points, init)| kmeans::run_flink(env, points, init, self.rounds),
        )
        .check(|out| {
            out.len() == self.expect.len()
                && out
                    .iter()
                    .zip(&self.expect)
                    .all(|(a, b)| close(a.x, b.x) && close(a.y, b.y))
        })
    }

    fn probe(&self, _p: usize, reps: usize, layers: &mut Layers) -> Tally {
        let decode = || -> Vec<F64Batch> {
            self.points
                .chunks(DEFAULT_BATCH_ROWS)
                .map(|c| F64Batch::from_rows(2, c.iter().map(|p| [p.x, p.y])))
                .collect()
        };
        layers.probe("columnar.batch_decode_s", reps, || (), |()| decode());
        let batches = decode();
        let centers = F64Batch::from_rows(2, self.init.iter().map(|c| [c.x, c.y]));
        let k = centers.rows();
        layers.probe(
            "columnar.assign_s",
            reps,
            || (),
            |()| {
                let mut rows = 0;
                for _ in 0..self.rounds {
                    let (mut sums, mut counts) = (vec![0.0f64; 2 * k], vec![0u64; k]);
                    for b in &batches {
                        rows += kernels::assign_accumulate(b, &centers, &mut sums, &mut counts);
                    }
                    black_box((&sums, &counts));
                }
                rows
            },
        );
        Tally::default()
    }
}

// --- graph -------------------------------------------------------------------

struct Graph {
    edges: Vec<(u64, u64)>,
    rounds: u32,
    ranks: HashMap<u64, f64>,
    labels: HashMap<u64, u64>,
}

/// Connected Components runs to its fixpoint; this only bounds a bug.
const CC_MAX_ROUNDS: u32 = 200;

impl EngineWorkload for Graph {
    /// PageRank and Connected Components each read every edge once.
    fn records(&self) -> u64 {
        2 * self.edges.len() as u64
    }

    fn run(&self, engine: Engine, cfg: JobCfg, tracer: &Tracer) -> Rep {
        let edges = &self.edges;
        let mut rep = on_engine(
            engine,
            cfg,
            tracer,
            (),
            |sc, ()| {
                let (ranks, s, m) =
                    tracer.time(|| pagerank::run_spark(sc, edges, self.rounds, cfg.p));
                let labels = connected::run_spark(sc, edges, CC_MAX_ROUNDS, cfg.p);
                (Some(ranks), Some(labels), s, m, tracer.now())
            },
            |env, ()| {
                let (ranks, s, m) =
                    tracer.time(|| pagerank::run_flink(env, edges, self.rounds, cfg.p));
                let labels =
                    connected::run_flink(env, edges, CC_MAX_ROUNDS, cfg.p, CcVariant::Delta, None);
                (ranks.ok(), labels.ok(), s, m, tracer.now())
            },
        );
        let (start, mid, end) = (rep.out.2, rep.out.3, rep.out.4);
        rep.parts = vec![
            ("graph.pagerank", start, mid),
            ("graph.connected", mid, end),
        ];
        rep.check(|(ranks, labels, ..)| {
            let ranks_ok = ranks.as_ref().is_some_and(|r| {
                r.len() == self.ranks.len()
                    && r.iter()
                        .all(|(v, x)| self.ranks.get(v).is_some_and(|y| close(*x, *y)))
            });
            ranks_ok && labels.as_ref() == Some(&self.labels)
        })
    }

    fn probe(&self, p: usize, reps: usize, layers: &mut Layers) -> Tally {
        let sym: Vec<(u64, u64)> = self
            .edges
            .iter()
            .flat_map(|&(s, t)| [(s, t), (t, s)])
            .collect();
        layers.probe(
            "iterate.graph_build_s",
            reps,
            || (),
            |()| {
                (
                    PartitionedGraph::from_edges(&self.edges, p),
                    PartitionedGraph::from_edges(&sym, p),
                )
            },
        );
        Tally::default()
    }
}

// --- nexmark -----------------------------------------------------------------

struct Nexmark {
    q3: StreamSource<NexmarkEvent>,
    q6: StreamSource<NexmarkEvent>,
    q3_expect: Vec<Q3Row>,
    q6_expect: Vec<flowmark_engine::WindowResult>,
}

/// A generated Nexmark stream with bounded in-allowance disorder, so the
/// runtimes see watermark lag but drop nothing — the dataset
/// `harness::bench::stream_dataset` builds.
fn stream_dataset(seed: u64, events: usize) -> StreamSource<NexmarkEvent> {
    let mut src = nexmark_source(
        nexmark::generate(seed, events, &NexmarkConfig::default()),
        SourceConfig {
            allowance: 32,
            watermark_every: 16,
            stall_watermark_after: None,
            hold_at_end: false,
        },
    );
    src.events = shuffle_bounded(src.events, seed ^ 0xD150_4DE4, 6);
    src
}

/// The runtime default every existing caller uses.
const CHECKPOINT_INTERVAL: u64 = 64;
/// The interval of the sparse-checkpoint window.
const SPARSE_CHECKPOINT_INTERVAL: u64 = 4096;

fn stream_plan(interval: u64) -> FaultPlan {
    FaultPlan::new(FaultConfig {
        checkpoint_interval_records: interval,
        ..FaultConfig::default()
    })
}

/// Nanoseconds the traced streaming operators spent per callback family
/// since the last [`StreamTimes::take`]. Process-wide because
/// `StreamOperator::write_state` has no receiver to hang a counter on.
static FOLD_NS: AtomicU64 = AtomicU64::new(0);
static FIRE_NS: AtomicU64 = AtomicU64::new(0);
static SNAPSHOT_NS: AtomicU64 = AtomicU64::new(0);

fn timed_into<R>(sink: &AtomicU64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    sink.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    r
}

/// Seconds inside the streaming operators' callbacks, summed over tasks.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamTimes {
    /// `on_event` / `on_batch`.
    pub fold_s: f64,
    /// `on_watermark`.
    pub fire_s: f64,
    /// `state` + `write_state`.
    pub snapshot_s: f64,
}

impl StreamTimes {
    /// Reads and zeroes the accumulators.
    pub fn take() -> Self {
        let take = |a: &AtomicU64| a.swap(0, Ordering::Relaxed) as f64 * 1e-9;
        Self {
            fold_s: take(&FOLD_NS),
            fire_s: take(&FIRE_NS),
            snapshot_s: take(&SNAPSHOT_NS),
        }
    }
}

/// Benchmark-side wrapper timing every callback of a streaming operator.
struct Timed<Op>(Op);

impl<Op: StreamOperator> StreamOperator for Timed<Op> {
    type In = Op::In;
    type Out = Op::Out;
    type State = Op::State;

    fn on_event(&mut self, event: &StreamEvent<Op::In>, out: &mut Vec<Op::Out>) {
        timed_into(&FOLD_NS, || self.0.on_event(event, out));
    }
    fn on_batch(&mut self, events: &[StreamEvent<Op::In>], out: &mut Vec<Op::Out>) {
        timed_into(&FOLD_NS, || self.0.on_batch(events, out));
    }
    fn on_watermark(&mut self, watermark: u64, out: &mut Vec<Op::Out>) {
        timed_into(&FIRE_NS, || self.0.on_watermark(watermark, out));
    }
    fn state(&self) -> Op::State {
        timed_into(&SNAPSHOT_NS, || self.0.state())
    }
    fn restore(&mut self, state: Op::State) {
        self.0.restore(state);
    }
    fn write_state(state: &Op::State, h: &mut Xxh64) {
        timed_into(&SNAPSHOT_NS, || Op::write_state(state, h));
    }
}

/// Runs one query on the runtime `engine` names and returns its committed
/// output in canonical order.
fn run_query<Op: StreamOperator>(
    engine: Engine,
    source: &StreamSource<Op::In>,
    make_op: impl Fn(usize) -> Op + Sync,
    route: fn(&Op::In) -> u64,
    p: usize,
    interval: u64,
    metrics: &EngineMetrics,
) -> Vec<Op::Out>
where
    Op::Out: Ord,
{
    let cfg = StreamJobConfig {
        parallelism: p,
        ..StreamJobConfig::default()
    };
    let (plan, cancel) = (stream_plan(interval), CancelToken::new());
    let result = match engine {
        Engine::Staged => {
            run_micro_batch_checkpointed(source, make_op, route, &cfg, &plan, metrics, &cancel)
        }
        Engine::Pipelined => {
            run_continuous_checkpointed(source, make_op, route, &cfg, &plan, metrics, &cancel)
        }
    };
    canonical(&result.committed)
}

impl EngineWorkload for Nexmark {
    fn records(&self) -> u64 {
        (self.q3.events.len() + self.q6.events.len()) as u64
    }

    fn run(&self, engine: Engine, cfg: JobCfg, tracer: &Tracer) -> Rep {
        let metrics = EngineMetrics::new();
        let (p, i) = (cfg.p, CHECKPOINT_INTERVAL);
        let ((q3, mid, q6), start_s, end_s) = tracer.time(|| {
            if cfg.traced {
                let q3 = run_query(
                    engine,
                    &self.q3,
                    |_| Timed(Q3Join::new()),
                    route_nexmark,
                    p,
                    i,
                    &metrics,
                );
                let mid = tracer.now();
                let q6 = run_query(
                    engine,
                    &self.q6,
                    |_| Timed(q6_operator()),
                    route_nexmark,
                    p,
                    i,
                    &metrics,
                );
                (q3, mid, q6)
            } else {
                let q3 = run_query(
                    engine,
                    &self.q3,
                    |_| Q3Join::new(),
                    route_nexmark,
                    p,
                    i,
                    &metrics,
                );
                let mid = tracer.now();
                let q6 = run_query(
                    engine,
                    &self.q6,
                    |_| q6_operator(),
                    route_nexmark,
                    p,
                    i,
                    &metrics,
                );
                (q3, mid, q6)
            }
        });
        Rep {
            start_s,
            end_s,
            ok: q3 == self.q3_expect && q6 == self.q6_expect,
            counters: metrics.snapshot(),
            parts: vec![("nexmark.q3", start_s, mid), ("nexmark.q6", mid, end_s)],
        }
    }

    /// q6 on the continuous runtime with sparse checkpoints: the same
    /// runtime used differently, so a snapshot-path gain that costs the
    /// transport path shows.
    fn probe(&self, p: usize, reps: usize, layers: &mut Layers) -> Tally {
        let mut tally = Tally::default();
        let seconds = crate::probe_median(
            reps,
            || (),
            |()| {
                let out = run_query(
                    Engine::Pipelined,
                    &self.q6,
                    |_| q6_operator(),
                    route_nexmark,
                    p,
                    SPARSE_CHECKPOINT_INTERVAL,
                    &EngineMetrics::new(),
                );
                tally.count(out == self.q6_expect);
            },
        );
        layers.set(
            "streaming.sparse_ckpt_rec_per_s",
            self.q6.events.len() as f64 / seconds,
        );
        tally
    }
}
