//! One verified workload cell: the fixed definition every drill runs.
//!
//! A [`Cell`] is one workload's input, generated from fixed seeds and
//! recipes, together with its sequential oracle's answer. [`Cell::run`]
//! builds either engine from the caller's [`Setup`], runs the workload on
//! it and says whether the answer is right, with the context's counters and
//! spans beside the verdict. The setup is where the drills differ: the
//! chaos drill arms a fault plan, the soak passes a job's cancel token, the
//! mix attaches a fragment-cache key and the tuner passes its candidate
//! config.
//!
//! Besides the six paper workloads, [`Cell::nexmark`] builds a Nexmark q3
//! or q6 cell: the staged engine runs it on the checkpointed micro-batch
//! runtime, the pipelined engine on the checkpointed continuous runtime.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use flowmark_columnar::checksum::Xxh64;
use flowmark_core::config::Framework;
use flowmark_core::spans::PlanTrace;
use flowmark_datagen::graph::{Edge, RmatGen, RmatParams};
use flowmark_datagen::nexmark::{self, NexmarkConfig, NexmarkEvent};
use flowmark_datagen::points::{Point, PointsConfig, PointsGen};
use flowmark_datagen::terasort::{Record, TeraGen};
use flowmark_datagen::text::{TextGen, TextGenConfig};
use flowmark_engine::flink::FlinkEnv;
use flowmark_engine::spark::SparkContext;
use flowmark_engine::streaming::{
    run_continuous_checkpointed, run_micro_batch_checkpointed, shuffle_bounded, SourceConfig,
    StreamJobConfig, StreamOperator, StreamSource, WindowResult,
};
use flowmark_engine::{EngineMetrics, IterationError, MetricsSnapshot, Setup};

use crate::connected::{self, CcVariant};
use crate::stream::{
    canonical, nexmark_source, q3_oracle, q6_operator, q6_oracle, route_nexmark, Q3Join, Q3Row,
    Query,
};
use crate::{grep, kmeans, pagerank, terasort, wordcount, Workload};

/// Rounds cap for Connected Components (it converges long before).
const CC_MAX_ROUNDS: u32 = 200;

/// Input sizes of the six cells.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Word Count / Grep corpus lines.
    pub lines: usize,
    /// TeraSort records.
    pub ts_records: usize,
    /// K-Means points.
    pub points: usize,
    /// Page Rank / Connected Components edges.
    pub edges: usize,
    /// Iterations for K-Means and Page Rank.
    pub rounds: u32,
}

/// What one run of a cell produced.
#[derive(Debug)]
pub struct Run {
    /// Whether the answer was right.
    pub verdict: Verdict,
    /// How long the engine call took.
    pub elapsed: Duration,
    /// The context's counters after the run.
    pub metrics: MetricsSnapshot,
    /// The context's operator spans.
    pub trace: PlanTrace,
    /// A Nexmark cell's epoch-tagged commit log; `None` for the six paper
    /// workloads.
    pub commits: Option<CommitLog>,
}

/// A streaming run's committed output in commit order, summarised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitLog {
    /// Results committed.
    pub rows: usize,
    /// xxHash64 (seed 0) over each result's epoch, then its fields.
    pub digest: u64,
}

/// What one run of a cell proved.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The output equals the oracle's answer.
    Verified,
    /// The engine finished, but its output differs from the oracle's.
    Diverged,
    /// The engine gave up with an error.
    Failed(IterationError),
}

impl Verdict {
    /// True for [`Verdict::Verified`].
    pub fn is_verified(&self) -> bool {
        matches!(self, Verdict::Verified)
    }

    /// A job result naming `what` ran: a divergence says "diverged", a
    /// failure carries the engine's error text.
    pub fn into_result(self, what: &str) -> Result<(), String> {
        match self {
            Verdict::Verified => Ok(()),
            Verdict::Diverged => Err(format!("{what} diverged from oracle")),
            Verdict::Failed(e) => Err(format!("{what}: engine-fatal error: {e}")),
        }
    }
}

/// One workload's input.
#[derive(Debug, Clone)]
enum Input {
    WordCount(Vec<String>),
    Grep {
        lines: Vec<String>,
        needle: String,
    },
    TeraSort(Vec<Record>),
    KMeans {
        points: Vec<Point>,
        init: Vec<Point>,
    },
    PageRank(Vec<Edge>),
    Connected(Vec<Edge>),
    Nexmark(Query, StreamSource<NexmarkEvent>),
}

/// A workload's answer: what an engine returns and what the oracle expects.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Counts(HashMap<String, u64>),
    Count(u64),
    /// Every record, whole, by output partition; compared flattened.
    Sorted(Vec<Vec<Record>>),
    Centers(Vec<Point>),
    Ranks(HashMap<u64, f64>),
    Labels(HashMap<u64, u64>),
    /// Committed results in canonical order, epoch tags stripped.
    Joined(Vec<Q3Row>),
    Windows(Vec<WindowResult>),
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + b.abs())
}

impl Answer {
    /// Exact equality, except that floats match within a relative 1e-9
    /// and sorted records regardless of where the partitions split.
    fn matches(&self, expect: &Answer) -> bool {
        match (self, expect) {
            (Answer::Centers(out), Answer::Centers(exp)) => {
                out.len() == exp.len()
                    && out
                        .iter()
                        .zip(exp)
                        .all(|(p, q)| close(p.x, q.x) && close(p.y, q.y))
            }
            (Answer::Sorted(out), Answer::Sorted(exp)) => {
                out.iter().flatten().eq(exp.iter().flatten())
            }
            (Answer::Ranks(out), Answer::Ranks(exp)) => {
                out.len() == exp.len()
                    && out
                        .iter()
                        .all(|(v, r)| exp.get(v).is_some_and(|e| close(*r, *e)))
            }
            _ => self == expect,
        }
    }
}

/// One workload's input and its oracle's answer.
#[derive(Debug)]
pub struct Cell {
    input: Input,
    rounds: u32,
    seed: u64,
    expect: Answer,
}

impl Cell {
    /// Generates `workload`'s input at `sizes` from its fixed seed and
    /// recipe, and computes the oracle's answer.
    pub fn generate(workload: Workload, sizes: &Sizes) -> Self {
        let seed = seed(workload);
        let input = match workload {
            Workload::WordCount => {
                Input::WordCount(TextGen::new(TextGenConfig::default(), seed).lines(sizes.lines))
            }
            Workload::Grep => {
                let config = TextGenConfig {
                    needle_selectivity: 0.05,
                    ..TextGenConfig::default()
                };
                let needle = config.needle.clone();
                Input::Grep {
                    lines: TextGen::new(config, seed).lines(sizes.lines),
                    needle,
                }
            }
            Workload::TeraSort => Input::TeraSort(TeraGen::new(seed).records(sizes.ts_records)),
            Workload::KMeans => {
                let mut gen = PointsGen::new(
                    PointsConfig {
                        clusters: 4,
                        box_half_width: 100.0,
                        sigma: 3.0,
                    },
                    seed,
                );
                let init = gen
                    .true_centers()
                    .iter()
                    .map(|c| Point {
                        x: c.x + 10.0,
                        y: c.y - 8.0,
                    })
                    .collect();
                Input::KMeans {
                    points: gen.points(sizes.points),
                    init,
                }
            }
            Workload::PageRank => {
                let mut edges = RmatGen::new(9, RmatParams::default(), seed).edges(sizes.edges);
                edges.dedup();
                Input::PageRank(edges)
            }
            Workload::ConnectedComponents => {
                Input::Connected(RmatGen::new(8, RmatParams::default(), seed).edges(sizes.edges))
            }
        };
        Self::with_input(input, sizes.rounds, seed)
    }

    /// Nexmark `query` over `events` generated from `seed`, and the
    /// oracle's answer. Arrivals are shuffled at most 6 positions, inside
    /// the allowance of 32 ticks, with a watermark every 16 events, so the
    /// runtimes see disorder and nothing is late.
    pub fn nexmark(query: Query, events: usize, seed: u64) -> Self {
        let config = SourceConfig {
            allowance: 32,
            watermark_every: 16,
            stall_watermark_after: None,
            hold_at_end: false,
        };
        let mut source = nexmark_source(
            nexmark::generate(seed, events, &NexmarkConfig::default()),
            config,
        );
        source.events = shuffle_bounded(source.events, seed ^ 0xD150_4DE4, 6);
        Self::with_input(Input::Nexmark(query, source), 0, seed)
    }

    fn with_input(input: Input, rounds: u32, seed: u64) -> Self {
        let expect = match &input {
            Input::WordCount(lines) => Answer::Counts(wordcount::oracle(lines)),
            Input::Grep { lines, needle } => Answer::Count(grep::oracle(lines, needle)),
            Input::TeraSort(records) => Answer::Sorted(vec![terasort::oracle(records.clone())]),
            Input::KMeans { points, init } => {
                Answer::Centers(kmeans::oracle(points, init.clone(), rounds))
            }
            Input::PageRank(edges) => Answer::Ranks(pagerank::oracle(edges, rounds)),
            Input::Connected(edges) => Answer::Labels(connected::oracle(edges)),
            Input::Nexmark(query, source) => match query {
                Query::Q3 => Answer::Joined(q3_oracle(source)),
                Query::Q6 => Answer::Windows(q6_oracle(source)),
            },
        };
        Self {
            input,
            rounds,
            seed,
            expect,
        }
    }

    /// The cell over the first `n` input records (lines, records, points,
    /// edges or events), with its own oracle answer. Panics if `n` exceeds
    /// [`Cell::len`].
    pub fn prefix(&self, n: usize) -> Self {
        let input = match &self.input {
            Input::WordCount(lines) => Input::WordCount(lines[..n].to_vec()),
            Input::Grep { lines, needle } => Input::Grep {
                lines: lines[..n].to_vec(),
                needle: needle.clone(),
            },
            Input::TeraSort(records) => Input::TeraSort(records[..n].to_vec()),
            Input::KMeans { points, init } => Input::KMeans {
                points: points[..n].to_vec(),
                init: init.clone(),
            },
            Input::PageRank(edges) => Input::PageRank(edges[..n].to_vec()),
            Input::Connected(edges) => Input::Connected(edges[..n].to_vec()),
            Input::Nexmark(query, source) => {
                let events = source.events[..n].to_vec();
                Input::Nexmark(
                    *query,
                    StreamSource::with_config(events, source.config.clone()),
                )
            }
        };
        Self::with_input(input, self.rounds, self.seed)
    }

    /// The paper workload this cell runs; `None` for a Nexmark cell.
    pub fn workload(&self) -> Option<Workload> {
        Some(match self.input {
            Input::WordCount(_) => Workload::WordCount,
            Input::Grep { .. } => Workload::Grep,
            Input::TeraSort(_) => Workload::TeraSort,
            Input::KMeans { .. } => Workload::KMeans,
            Input::PageRank(_) => Workload::PageRank,
            Input::Connected(_) => Workload::ConnectedComponents,
            Input::Nexmark(..) => return None,
        })
    }

    /// Report id: the workload's [`Workload::name`], or `nexmark-q3` /
    /// `nexmark-q6`.
    pub fn name(&self) -> &'static str {
        match &self.input {
            Input::Nexmark(Query::Q3, _) => "nexmark-q3",
            Input::Nexmark(Query::Q6, _) => "nexmark-q6",
            _ => self.workload().map_or("", Workload::name),
        }
    }

    /// The dataset seed, which also names the input in fragment-cache keys.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Input records: lines, records, points, edges or events.
    pub fn len(&self) -> usize {
        match &self.input {
            Input::WordCount(lines) | Input::Grep { lines, .. } => lines.len(),
            Input::TeraSort(records) => records.len(),
            Input::KMeans { points, .. } => points.len(),
            Input::PageRank(edges) | Input::Connected(edges) => edges.len(),
            Input::Nexmark(_, source) => source.events.len(),
        }
    }

    /// Results in the oracle's answer: distinct words, one count, records,
    /// centers, vertices, or committed stream results.
    pub fn answer_len(&self) -> usize {
        match &self.expect {
            Answer::Counts(counts) => counts.len(),
            Answer::Count(_) => 1,
            Answer::Sorted(parts) => parts.iter().map(Vec::len).sum(),
            Answer::Centers(centers) => centers.len(),
            Answer::Ranks(ranks) => ranks.len(),
            Answer::Labels(labels) => labels.len(),
            Answer::Joined(rows) => rows.len(),
            Answer::Windows(windows) => windows.len(),
        }
    }

    /// True when the cell has no input records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Builds `engine` from `setup`, runs the workload on it and checks the
    /// answer. Only the engine call is timed: the context is built and the
    /// input copy the engine consumes is made before the clock starts, and
    /// the oracle comparison happens after it stops.
    pub fn run(&self, engine: Framework, setup: &Setup) -> Run {
        if let Input::Nexmark(query, source) = &self.input {
            return match query {
                Query::Q3 => {
                    self.run_stream(engine, setup, source, Q3Join::new, Answer::Joined, |r| {
                        vec![r.auction, r.seller, r.state, r.city]
                    })
                }
                Query::Q6 => {
                    self.run_stream(engine, setup, source, q6_operator, Answer::Windows, |w| {
                        vec![w.key, w.start, w.end, w.sum, w.count, w.max]
                    })
                }
            };
        }
        let input = self.input.clone();
        let (out, elapsed, metrics, trace) = match engine {
            Framework::Spark => {
                let sc = setup.spark();
                let start = Instant::now();
                let out = Ok(self.on_spark(&sc, input));
                (out, start.elapsed(), sc.metrics().snapshot(), sc.trace())
            }
            Framework::Flink => {
                let env = setup.flink();
                let start = Instant::now();
                let out = self.on_flink(&env, input);
                (out, start.elapsed(), env.metrics().snapshot(), env.trace())
            }
        };
        Run {
            verdict: self.judge(out),
            elapsed,
            metrics,
            trace,
            commits: None,
        }
    }

    fn on_spark(&self, sc: &SparkContext, input: Input) -> Answer {
        let (parts, rounds) = (sc.default_parallelism(), self.rounds);
        match input {
            Input::WordCount(lines) => Answer::Counts(wordcount::run_spark(sc, lines, parts)),
            Input::Grep { lines, needle } => {
                Answer::Count(grep::run_spark(sc, lines, &needle, parts))
            }
            Input::TeraSort(records) => Answer::Sorted(terasort::run_spark(sc, records, parts)),
            Input::KMeans { points, init } => {
                Answer::Centers(kmeans::run_spark(sc, points, init, rounds, parts))
            }
            Input::PageRank(edges) => {
                Answer::Ranks(pagerank::run_spark(sc, &edges, rounds, parts))
            }
            Input::Connected(edges) => {
                Answer::Labels(connected::run_spark(sc, &edges, CC_MAX_ROUNDS, parts))
            }
            Input::Nexmark(..) => unreachable!("Nexmark cells run on a stream runtime"),
        }
    }

    fn on_flink(&self, env: &FlinkEnv, input: Input) -> Result<Answer, IterationError> {
        let (parts, rounds) = (env.parallelism(), self.rounds);
        Ok(match input {
            Input::WordCount(lines) => Answer::Counts(wordcount::run_flink(env, lines)),
            Input::Grep { lines, needle } => Answer::Count(grep::run_flink(env, lines, &needle)),
            Input::TeraSort(records) => Answer::Sorted(terasort::run_flink(env, records, parts)),
            Input::KMeans { points, init } => {
                Answer::Centers(kmeans::run_flink(env, points, init, rounds))
            }
            Input::PageRank(edges) => {
                Answer::Ranks(pagerank::run_flink(env, &edges, rounds, parts)?)
            }
            // The delta variant exercises the vertex-centric solution-set
            // snapshot/restore path.
            Input::Connected(edges) => Answer::Labels(connected::run_flink(
                env,
                &edges,
                CC_MAX_ROUNDS,
                parts,
                CcVariant::Delta,
                None,
            )?),
            Input::Nexmark(..) => unreachable!("Nexmark cells run on a stream runtime"),
        })
    }

    /// Runs a Nexmark query at the setup's parallelism under its fault
    /// plan and cancel token — micro-batch for the staged engine,
    /// continuous for the pipelined one — then judges the committed output
    /// and digests the epoch-tagged log (`fields` flattens one result).
    fn run_stream<Op: StreamOperator<In = NexmarkEvent, Out: Ord>>(
        &self,
        engine: Framework,
        setup: &Setup,
        source: &StreamSource<NexmarkEvent>,
        make_op: fn() -> Op,
        answer: fn(Vec<Op::Out>) -> Answer,
        fields: fn(&Op::Out) -> Vec<u64>,
    ) -> Run {
        let cfg = StreamJobConfig {
            parallelism: setup.config.parallelism,
            ..StreamJobConfig::default()
        };
        let (op, plan, cancel) = (|_| make_op(), &setup.faults, &setup.cancel);
        let metrics = EngineMetrics::new();
        let start = Instant::now();
        let out = match engine {
            Framework::Spark => run_micro_batch_checkpointed(
                source,
                op,
                route_nexmark,
                &cfg,
                plan,
                &metrics,
                cancel,
            ),
            Framework::Flink => {
                run_continuous_checkpointed(source, op, route_nexmark, &cfg, plan, &metrics, cancel)
            }
        };
        let elapsed = start.elapsed();
        let mut h = Xxh64::new(0);
        for (epoch, result) in &out.committed {
            h.write_u64(*epoch);
            h.write_u64s(&fields(result));
        }
        Run {
            verdict: self.judge(Ok(answer(canonical(&out.committed)))),
            elapsed,
            metrics: metrics.snapshot(),
            trace: PlanTrace::default(),
            commits: Some(CommitLog {
                rows: out.committed.len(),
                digest: h.finish(),
            }),
        }
    }

    fn judge(&self, out: Result<Answer, IterationError>) -> Verdict {
        match out {
            Ok(answer) if answer.matches(&self.expect) => Verdict::Verified,
            Ok(_) => Verdict::Diverged,
            Err(e) => Verdict::Failed(e),
        }
    }
}

/// Each workload's fixed dataset seed.
fn seed(workload: Workload) -> u64 {
    match workload {
        Workload::WordCount => 7,
        Workload::Grep => 3,
        Workload::TeraSort => 11,
        Workload::KMeans => 5,
        Workload::PageRank => 21,
        Workload::ConnectedComponents => 33,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Sizes {
        Sizes {
            lines: 200,
            ts_records: 200,
            points: 200,
            edges: 200,
            rounds: 2,
        }
    }

    #[test]
    fn every_cell_verifies_on_both_clean_engines() {
        for workload in Workload::ALL {
            let cell = Cell::generate(workload, &tiny());
            for engine in Framework::BOTH {
                let run = cell.run(engine, &Setup::new(2));
                assert_eq!(run.verdict, Verdict::Verified, "{workload:?} {engine}");
                assert!(run.metrics.tasks_launched > 0, "{workload:?} {engine}");
            }
        }
        for query in [Query::Q3, Query::Q6] {
            let cell = Cell::nexmark(query, 1_500, 3);
            assert!(cell.answer_len() > 0, "{}", cell.name());
            for engine in Framework::BOTH {
                let run = cell.run(engine, &Setup::new(2));
                assert_eq!(run.verdict, Verdict::Verified, "{} {engine}", cell.name());
                assert_eq!(run.metrics.records_read, 1_500, "{} {engine}", cell.name());
                let commits = run.commits.expect("a Nexmark run reports its commit log");
                assert_eq!(commits.rows, cell.answer_len(), "{} {engine}", cell.name());
            }
        }
    }

    /// The oracle's own answer, perturbed by `nudge`, must be rejected.
    fn rejects(workload: Workload, nudge: impl FnOnce(&mut Answer)) {
        let cell = Cell::generate(workload, &tiny());
        let mut answer = cell.expect.clone();
        assert_eq!(cell.judge(Ok(answer.clone())), Verdict::Verified);
        nudge(&mut answer);
        assert_eq!(cell.judge(Ok(answer)), Verdict::Diverged, "{workload:?}");
    }

    #[test]
    fn every_answer_type_rejects_a_one_unit_perturbation() {
        rejects(Workload::WordCount, |a| match a {
            Answer::Counts(counts) => *counts.values_mut().next().expect("words") += 1,
            _ => unreachable!(),
        });
        rejects(Workload::Grep, |a| match a {
            Answer::Count(n) => *n += 1,
            _ => unreachable!(),
        });
        rejects(Workload::KMeans, |a| match a {
            Answer::Centers(centers) => centers[0].x *= 1.0 + 1e-6,
            _ => unreachable!(),
        });
        rejects(Workload::PageRank, |a| match a {
            Answer::Ranks(ranks) => *ranks.values_mut().next().expect("vertices") *= 1.0 + 1e-6,
            _ => unreachable!(),
        });
        rejects(Workload::ConnectedComponents, |a| match a {
            Answer::Labels(labels) => *labels.values_mut().next().expect("vertices") += 1,
            _ => unreachable!(),
        });
    }

    #[test]
    fn terasort_rejects_a_payload_swap_between_two_records() {
        rejects(Workload::TeraSort, |a| match a {
            Answer::Sorted(parts) => {
                use flowmark_datagen::terasort::KEY_BYTES;
                let (first, rest) = parts[0].split_at_mut(1);
                let (a, b) = (&mut first[0].0[KEY_BYTES..], &mut rest[0].0[KEY_BYTES..]);
                assert_ne!(a, b, "payloads must differ for the swap to show");
                a.swap_with_slice(b);
            }
            _ => unreachable!(),
        });
    }

    #[test]
    fn a_prefix_is_the_first_n_records_with_its_own_oracle() {
        let cell = Cell::generate(Workload::Grep, &tiny());
        let half = cell.prefix(50);
        assert_eq!(half.len(), 50);
        let run = half.run(Framework::Spark, &Setup::new(2));
        assert_eq!(run.verdict, Verdict::Verified);
        assert_eq!(run.metrics.records_read, 50);
        assert_ne!(half.expect, cell.expect);
    }

    #[test]
    fn a_failure_carries_the_engine_error_text() {
        let err = IterationError::SolutionSetOom {
            needed: 9,
            budget: 4,
        };
        let text = Verdict::Failed(err.clone())
            .into_result("connected/Flink")
            .unwrap_err();
        assert!(text.contains(&err.to_string()), "{text}");
        assert!(!text.contains("diverged"));
        assert!(Verdict::Diverged
            .into_result("grep/Spark")
            .unwrap_err()
            .contains("diverged"));
    }

    /// FNV-1a over a canonical byte encoding of the input.
    fn digest(input: &Input) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
            }
        };
        match input {
            Input::WordCount(lines) => lines.iter().for_each(|l| eat(format!("{l}\n").as_bytes())),
            Input::Grep { lines, needle } => {
                eat(needle.as_bytes());
                lines.iter().for_each(|l| eat(format!("{l}\n").as_bytes()));
            }
            Input::TeraSort(records) => records.iter().for_each(|r| eat(&r.0)),
            Input::KMeans { points, init } => {
                for p in init.iter().chain(points) {
                    eat(&p.x.to_bits().to_le_bytes());
                    eat(&p.y.to_bits().to_le_bytes());
                }
            }
            Input::PageRank(edges) | Input::Connected(edges) => {
                for (a, b) in edges {
                    eat(&a.to_le_bytes());
                    eat(&b.to_le_bytes());
                }
            }
            Input::Nexmark(_, source) => {
                for e in &source.events {
                    eat(&e.time.to_le_bytes());
                    eat(&route_nexmark(&e.payload).to_le_bytes());
                }
            }
        }
        h
    }

    /// The drills' inputs are pinned: these digests were computed from the
    /// per-drill recipes this module replaced, so every drill still runs on
    /// byte-identical data.
    #[test]
    fn generated_inputs_match_the_pinned_recipe_digests() {
        let sizes = Sizes {
            lines: 64,
            ts_records: 64,
            points: 64,
            edges: 64,
            rounds: 2,
        };
        let pinned: [(Workload, u64); 6] = [
            (Workload::WordCount, 0x84c0_04fe_f0a7_35ae),
            (Workload::Grep, 0x9c07_380e_051f_160a),
            (Workload::TeraSort, 0xdad8_e19a_bb4e_e3e4),
            (Workload::KMeans, 0x309e_9752_01c7_c3b9),
            (Workload::PageRank, 0x67c0_813e_03d5_f874),
            (Workload::ConnectedComponents, 0x4ef9_793e_5a3a_39fb),
        ];
        for (workload, want) in pinned {
            let got = digest(&Cell::generate(workload, &sizes).input);
            assert_eq!(got, want, "{workload:?} input changed: {got:#018x}");
        }
    }
}
