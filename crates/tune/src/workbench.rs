//! The measurement rig: the six workloads of Table III on either engine.
//!
//! A [`Workbench`] owns one workload's dataset (generated once, from the
//! same seeds and recipes as the chaos drill) and
//! measures any [`EngineConfig`] on any prefix fraction of it, verifying
//! every run against the sequential oracle. Oracles are memoised per
//! prefix length, so successive-halving rungs don't recompute them.

use std::collections::HashMap;
use std::time::Instant;

use flowmark_core::config::{EngineConfig, Framework};
use flowmark_datagen::graph::{Edge, RmatGen, RmatParams};
use flowmark_datagen::points::{Point, PointsConfig, PointsGen};
use flowmark_datagen::terasort::{Record, TeraGen};
use flowmark_datagen::text::{TextGen, TextGenConfig};
use flowmark_engine::flink::FlinkEnv;
use flowmark_engine::spark::SparkContext;
use flowmark_workloads::connected::{self, CcVariant};
use flowmark_workloads::{grep, kmeans, pagerank, terasort, wordcount};

use crate::search::{Budget, Measure, Measurement};

/// Fixed dataset seeds, shared with the chaos drill.
const WC_SEED: u64 = 7;
const GREP_SEED: u64 = 3;
const TS_SEED: u64 = 11;
const KM_SEED: u64 = 5;
const PR_SEED: u64 = 21;
const CC_SEED: u64 = 33;

/// Rounds cap for Connected Components (converges long before).
const CC_MAX_ROUNDS: u32 = 200;

/// The six workloads of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadId {
    /// Word Count — batch, combine-heavy aggregation.
    WordCount,
    /// Grep — batch, filter + count.
    Grep,
    /// TeraSort — batch, range repartition + sort.
    TeraSort,
    /// K-Means — iterative, broadcast + aggregate.
    KMeans,
    /// Page Rank — graph, per-round shuffles.
    PageRank,
    /// Connected Components — graph, converging deltas.
    Connected,
}

impl WorkloadId {
    /// All six, in Table III order.
    pub const ALL: [WorkloadId; 6] = [
        WorkloadId::WordCount,
        WorkloadId::Grep,
        WorkloadId::TeraSort,
        WorkloadId::KMeans,
        WorkloadId::PageRank,
        WorkloadId::Connected,
    ];

    /// Report id.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::WordCount => "wordcount",
            WorkloadId::Grep => "grep",
            WorkloadId::TeraSort => "terasort",
            WorkloadId::KMeans => "kmeans",
            WorkloadId::PageRank => "pagerank",
            WorkloadId::Connected => "connected",
        }
    }

    /// Parses a report id.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes for one tuning run.
#[derive(Debug, Clone, Copy)]
pub struct TuneScale {
    /// Word Count / Grep corpus lines.
    pub lines: usize,
    /// TeraSort records.
    pub ts_records: usize,
    /// K-Means points.
    pub points: usize,
    /// Page Rank / Connected Components edges.
    pub edges: usize,
    /// Iterations for the iterative workloads.
    pub rounds: u32,
}

impl TuneScale {
    /// Smoke scale: small enough that a dozen trials per cell stay fast.
    pub fn smoke() -> Self {
        Self {
            lines: 1_500,
            ts_records: 1_500,
            points: 2_000,
            edges: 1_200,
            rounds: 3,
        }
    }

    /// CLI scale.
    pub fn full() -> Self {
        Self {
            lines: 20_000,
            ts_records: 20_000,
            points: 10_000,
            edges: 6_000,
            rounds: 6,
        }
    }
}

/// One workload's dataset.
enum Dataset {
    Text(Vec<String>),
    Needle { lines: Vec<String>, needle: String },
    Records(Vec<Record>),
    Points { points: Vec<Point>, init: Vec<Point> },
    Edges(Vec<Edge>),
}

/// A memoised oracle for one prefix length.
enum Oracle {
    Counts(HashMap<String, u64>),
    Count(u64),
    Keys(Vec<Vec<u8>>),
    Centers(Vec<Point>),
    Ranks(HashMap<u64, f64>),
    Labels(HashMap<u64, u64>),
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + b.abs())
}

/// Executes one workload on one engine at any config and input fraction.
pub struct Workbench {
    workload: WorkloadId,
    engine: Framework,
    rounds: u32,
    data: Dataset,
    oracles: HashMap<usize, Oracle>,
}

impl Workbench {
    /// Generates the workload's dataset at `scale` (same seeds and recipes
    /// as the chaos drill).
    pub fn new(workload: WorkloadId, engine: Framework, scale: TuneScale) -> Self {
        let data = match workload {
            WorkloadId::WordCount => {
                Dataset::Text(TextGen::new(TextGenConfig::default(), WC_SEED).lines(scale.lines))
            }
            WorkloadId::Grep => {
                let config = TextGenConfig {
                    needle_selectivity: 0.05,
                    ..TextGenConfig::default()
                };
                let needle = config.needle.clone();
                Dataset::Needle {
                    lines: TextGen::new(config, GREP_SEED).lines(scale.lines),
                    needle,
                }
            }
            WorkloadId::TeraSort => {
                Dataset::Records(TeraGen::new(TS_SEED).records(scale.ts_records))
            }
            WorkloadId::KMeans => {
                let mut gen = PointsGen::new(
                    PointsConfig {
                        clusters: 4,
                        box_half_width: 100.0,
                        sigma: 3.0,
                    },
                    KM_SEED,
                );
                let init: Vec<Point> = gen
                    .true_centers()
                    .iter()
                    .map(|c| Point {
                        x: c.x + 10.0,
                        y: c.y - 8.0,
                    })
                    .collect();
                Dataset::Points {
                    points: gen.points(scale.points),
                    init,
                }
            }
            WorkloadId::PageRank => {
                let mut edges = RmatGen::new(9, RmatParams::default(), PR_SEED).edges(scale.edges);
                edges.dedup();
                Dataset::Edges(edges)
            }
            WorkloadId::Connected => {
                Dataset::Edges(RmatGen::new(8, RmatParams::default(), CC_SEED).edges(scale.edges))
            }
        };
        Self {
            workload,
            engine,
            rounds: scale.rounds,
            data,
            oracles: HashMap::new(),
        }
    }

    /// The workload this bench measures.
    pub fn workload(&self) -> WorkloadId {
        self.workload
    }

    /// The engine this bench measures on.
    pub fn engine(&self) -> Framework {
        self.engine
    }

    /// Total input records at full budget.
    pub fn input_len(&self) -> usize {
        match &self.data {
            Dataset::Text(lines) => lines.len(),
            Dataset::Needle { lines, .. } => lines.len(),
            Dataset::Records(records) => records.len(),
            Dataset::Points { points, .. } => points.len(),
            Dataset::Edges(edges) => edges.len(),
        }
    }

    fn oracle(&mut self, n: usize) -> &Oracle {
        let workload = self.workload;
        let rounds = self.rounds;
        // (Entry API would borrow `self.data` twice; compute outside.)
        if !self.oracles.contains_key(&n) {
            let oracle = match (&self.data, workload) {
                (Dataset::Text(lines), _) => Oracle::Counts(wordcount::oracle(&lines[..n])),
                (Dataset::Needle { lines, needle }, _) => {
                    Oracle::Count(grep::oracle(&lines[..n], needle))
                }
                (Dataset::Records(records), _) => Oracle::Keys(
                    terasort::oracle(records[..n].to_vec())
                        .iter()
                        .map(|r| r.key().to_vec())
                        .collect(),
                ),
                (Dataset::Points { points, init }, _) => {
                    Oracle::Centers(kmeans::oracle(&points[..n], init.clone(), rounds))
                }
                (Dataset::Edges(edges), WorkloadId::PageRank) => {
                    Oracle::Ranks(pagerank::oracle(&edges[..n], rounds))
                }
                (Dataset::Edges(edges), _) => Oracle::Labels(connected::oracle(&edges[..n])),
            };
            self.oracles.insert(n, oracle);
        }
        &self.oracles[&n]
    }
}

impl Measure for Workbench {
    fn measure(&mut self, config: &EngineConfig, budget: Budget) -> Measurement {
        let full = self.input_len();
        let n = ((full as f64 * budget.fraction()).round() as usize).clamp(1, full);
        self.oracle(n); // memoise before timing starts
        let parts = config.parallelism;
        let rounds = self.rounds;

        let start = Instant::now();
        let (verified, metrics, trace) = match self.engine {
            Framework::Spark => {
                let sc = SparkContext::with_config(config);
                let verified = match (&self.data, self.workload) {
                    (Dataset::Text(lines), _) => {
                        let out = wordcount::run_spark(&sc, lines[..n].to_vec(), parts);
                        matches!(&self.oracles[&n], Oracle::Counts(o) if *o == out)
                    }
                    (Dataset::Needle { lines, needle }, _) => {
                        let out = grep::run_spark(&sc, lines[..n].to_vec(), needle, parts);
                        matches!(&self.oracles[&n], Oracle::Count(o) if *o == out)
                    }
                    (Dataset::Records(records), _) => {
                        let out = terasort::run_spark(&sc, records[..n].to_vec(), parts);
                        ts_ok(&self.oracles[&n], n, &out)
                    }
                    (Dataset::Points { points, init }, _) => {
                        let out =
                            kmeans::run_spark(&sc, points[..n].to_vec(), init.clone(), rounds, parts);
                        centers_ok(&self.oracles[&n], &out)
                    }
                    (Dataset::Edges(edges), WorkloadId::PageRank) => {
                        let out = pagerank::run_spark(&sc, &edges[..n], rounds, parts);
                        ranks_ok(&self.oracles[&n], &out)
                    }
                    (Dataset::Edges(edges), _) => {
                        let out = connected::run_spark(&sc, &edges[..n], CC_MAX_ROUNDS, parts);
                        matches!(&self.oracles[&n], Oracle::Labels(o) if *o == out)
                    }
                };
                (verified, sc.metrics().snapshot(), sc.trace())
            }
            Framework::Flink => {
                let env = FlinkEnv::with_config(config);
                let verified = match (&self.data, self.workload) {
                    (Dataset::Text(lines), _) => {
                        let out = wordcount::run_flink(&env, lines[..n].to_vec());
                        matches!(&self.oracles[&n], Oracle::Counts(o) if *o == out)
                    }
                    (Dataset::Needle { lines, needle }, _) => {
                        let out = grep::run_flink(&env, lines[..n].to_vec(), needle);
                        matches!(&self.oracles[&n], Oracle::Count(o) if *o == out)
                    }
                    (Dataset::Records(records), _) => {
                        let out = terasort::run_flink(&env, records[..n].to_vec(), parts);
                        ts_ok(&self.oracles[&n], n, &out)
                    }
                    (Dataset::Points { points, init }, _) => {
                        let out = kmeans::run_flink(&env, points[..n].to_vec(), init.clone(), rounds);
                        centers_ok(&self.oracles[&n], &out)
                    }
                    (Dataset::Edges(edges), WorkloadId::PageRank) => {
                        match pagerank::run_flink(&env, &edges[..n], rounds, parts) {
                            Ok(out) => ranks_ok(&self.oracles[&n], &out),
                            Err(_) => false,
                        }
                    }
                    (Dataset::Edges(edges), _) => {
                        match connected::run_flink(
                            &env,
                            &edges[..n],
                            CC_MAX_ROUNDS,
                            parts,
                            CcVariant::Delta,
                            None,
                        ) {
                            Ok(out) => matches!(&self.oracles[&n], Oracle::Labels(o) if *o == out),
                            Err(_) => false,
                        }
                    }
                };
                (verified, env.metrics().snapshot(), env.trace())
            }
        };

        Measurement {
            seconds: start.elapsed().as_secs_f64().max(1e-9),
            records: n as u64,
            verified,
            metrics,
            trace,
        }
    }
}

fn ts_ok(oracle: &Oracle, n: usize, out: &[Vec<Record>]) -> bool {
    match oracle {
        Oracle::Keys(expect) => {
            terasort::validate_output(n, out).is_ok()
                && out
                    .iter()
                    .flatten()
                    .map(|r| r.key().to_vec())
                    .eq(expect.iter().cloned())
        }
        _ => false,
    }
}

fn centers_ok(oracle: &Oracle, out: &[Point]) -> bool {
    match oracle {
        Oracle::Centers(expect) => {
            out.len() == expect.len()
                && out
                    .iter()
                    .zip(expect)
                    .all(|(p, q)| close(p.x, q.x) && close(p.y, q.y))
        }
        _ => false,
    }
}

fn ranks_ok(oracle: &Oracle, out: &HashMap<u64, f64>) -> bool {
    match oracle {
        Oracle::Ranks(expect) => {
            out.len() == expect.len()
                && out
                    .iter()
                    .all(|(v, r)| close(*r, expect.get(v).copied().unwrap_or(f64::NAN)))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TuneScale {
        TuneScale {
            lines: 300,
            ts_records: 300,
            points: 300,
            edges: 300,
            rounds: 2,
        }
    }

    #[test]
    fn wordcount_verifies_on_both_engines() {
        for engine in [Framework::Spark, Framework::Flink] {
            let mut bench = Workbench::new(WorkloadId::WordCount, engine, tiny());
            let m = bench.measure(&EngineConfig::with_parallelism(2), Budget::FULL);
            assert!(m.verified, "{engine:?} produced a wrong answer");
            assert_eq!(m.records, 300);
            assert!(m.metrics.records_shuffled > 0);
        }
    }

    #[test]
    fn partial_budgets_slice_the_prefix_and_verify() {
        let mut bench = Workbench::new(WorkloadId::Grep, Framework::Spark, tiny());
        let m = bench.measure(&EngineConfig::with_parallelism(2), Budget::fraction_of(4));
        assert!(m.verified);
        assert_eq!(m.records, 75);
    }

    #[test]
    fn oracles_are_memoised_per_prefix() {
        let mut bench = Workbench::new(WorkloadId::WordCount, Framework::Spark, tiny());
        bench.measure(&EngineConfig::with_parallelism(2), Budget::fraction_of(2));
        bench.measure(&EngineConfig::with_parallelism(4), Budget::fraction_of(2));
        bench.measure(&EngineConfig::with_parallelism(2), Budget::FULL);
        assert_eq!(bench.oracles.len(), 2);
    }

    #[test]
    fn every_workload_id_round_trips_its_name() {
        for w in WorkloadId::ALL {
            assert_eq!(WorkloadId::from_name(w.name()), Some(w));
        }
        assert_eq!(WorkloadId::from_name("nope"), None);
    }
}
