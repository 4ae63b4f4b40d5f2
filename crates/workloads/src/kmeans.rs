//! K-Means (§III, §VI-D): "evaluates the effectiveness of the caching
//! mechanism and the basic transformations", 10 iterations over 1.2 billion
//! 2-D samples.
//!
//! - Spark: per-iteration `map → reduceByKey → collectAsMap` driver loop on
//!   a persisted points RDD (Fig 10's `MC` waves);
//! - Flink: `bulk iterate` with the centroids broadcast per round
//!   (`withBroadcastSet`) — the whole loop deploys once.

use flowmark_columnar::{kernels, F64Batch};
use flowmark_core::config::Framework;
use flowmark_dataflow::operator::OperatorKind;
use flowmark_dataflow::plan::{CostAnnotation, IterationKind, LogicalPlan};
use flowmark_datagen::points::Point;
use flowmark_engine::cache::StorageLevel;
use flowmark_engine::flink::FlinkEnv;
use flowmark_engine::iterate::bulk_iterate;
use flowmark_engine::spark::SparkContext;

use crate::costs::*;

/// Problem size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansScale {
    /// Number of samples.
    pub points: u64,
    /// Iterations to run (the paper uses 10).
    pub iterations: u32,
}

impl KMeansScale {
    /// The paper's dataset: 1.2 billion samples, 10 iterations.
    pub fn paper() -> Self {
        Self {
            points: 1_200_000_000,
            iterations: 10,
        }
    }
}

/// Builds the annotated simulator plan for one engine.
pub fn plan(fw: Framework, scale: &KMeansScale) -> LogicalPlan {
    let mut body = LogicalPlan::new();
    let cached = body.source_cached(scale.points, KM_POINT_BYTES);
    let assign = body.unary(
        cached,
        OperatorKind::Map,
        CostAnnotation::new(1.0, KM_ASSIGN_NS, KM_POINT_BYTES + 8.0),
    );
    let agg_sel = KM_CENTERS / scale.points as f64;
    match fw {
        Framework::Spark => {
            let rbk = body.unary(
                assign,
                OperatorKind::ReduceByKey,
                CostAnnotation::new(agg_sel, 200.0, 24.0),
            );
            body.unary(
                rbk,
                OperatorKind::CollectAsMap,
                CostAnnotation::new(1.0, 100.0, 24.0),
            );
        }
        Framework::Flink => {
            body.unary(
                assign,
                OperatorKind::GroupReduce,
                CostAnnotation::new(agg_sel, 200.0, 24.0),
            );
        }
    }

    let mut p = LogicalPlan::new();
    let src = p.source(scale.points, KM_TEXT_BYTES);
    let parse = p.unary(
        src,
        OperatorKind::Map,
        CostAnnotation::new(1.0, KM_PARSE_NS, KM_POINT_BYTES),
    );
    let it = p.iterate(parse, IterationKind::Bulk, scale.iterations, body, 1.0);
    p.unary(
        it,
        OperatorKind::DataSink,
        CostAnnotation::new(agg_sel, 100.0, 24.0),
    );
    p
}

/// Table I row.
pub fn operator_table(fw: Framework) -> Vec<OperatorKind> {
    use OperatorKind::*;
    match fw {
        Framework::Spark => vec![Map, ReduceByKey, CollectAsMap, DataSink],
        Framework::Flink => vec![Map, GroupReduce, BulkIteration, WithBroadcastSet, DataSink],
    }
}

fn nearest(centers: &[Point], p: &Point) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in centers.iter().enumerate() {
        let d = p.dist2(c);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Per-center running sums for one round.
#[derive(Debug, Clone, Default)]
pub struct Partial {
    sums: Vec<(f64, f64, u64)>,
}

impl Partial {
    fn new(k: usize) -> Self {
        Self {
            sums: vec![(0.0, 0.0, 0); k],
        }
    }

    fn add(&mut self, center: usize, p: &Point) {
        let s = &mut self.sums[center];
        s.0 += p.x;
        s.1 += p.y;
        s.2 += 1;
    }

    fn merge(mut self, other: Partial) -> Partial {
        for (a, b) in self.sums.iter_mut().zip(other.sums) {
            a.0 += b.0;
            a.1 += b.1;
            a.2 += b.2;
        }
        self
    }

    fn centers(&self, fallback: &[Point]) -> Vec<Point> {
        self.sums
            .iter()
            .zip(fallback)
            .map(|((x, y, n), old)| {
                if *n > 0 {
                    Point {
                        x: x / *n as f64,
                        y: y / *n as f64,
                    }
                } else {
                    *old
                }
            })
            .collect()
    }
}

/// Point dimensionality (the paper's samples are 2-D).
const DIMS: usize = 2;

/// Packs a point slice into dim-major [`F64Batch`]es of at most
/// [`flowmark_columnar::DEFAULT_BATCH_ROWS`] rows each.
fn batch_points(points: &[Point]) -> Vec<F64Batch> {
    if points.is_empty() {
        return vec![F64Batch::new(DIMS)];
    }
    points
        .chunks(flowmark_columnar::DEFAULT_BATCH_ROWS)
        .map(|chunk| {
            F64Batch::from_rows(DIMS, chunk.iter().map(|p| [p.x, p.y]))
        })
        .collect()
}

/// The current centroids as one dim-major batch for the distance kernel.
fn centers_batch(centers: &[Point]) -> F64Batch {
    F64Batch::from_rows(DIMS, centers.iter().map(|c| [c.x, c.y]))
}

/// Folds every point of a partition's batches into per-center sums via the
/// vectorized [`kernels::assign_accumulate`] path, counting the rows it
/// assigned.
fn assign_partition(
    batches: &[F64Batch],
    centers: &F64Batch,
    metrics: &flowmark_engine::metrics::EngineMetrics,
) -> Partial {
    let k = centers.rows();
    let mut sums = vec![0.0f64; DIMS * k];
    let mut counts = vec![0u64; k];
    for b in batches {
        let rows = kernels::assign_accumulate(b, centers, &mut sums, &mut counts);
        metrics.add_batches_processed(1);
        metrics.add_points_assigned_vectorized(rows as u64);
    }
    Partial {
        sums: (0..k).map(|c| (sums[c], sums[k + c], counts[c])).collect(),
    }
}

/// Runs K-Means on the staged engine: driver loop over a persisted RDD of
/// dim-major column batches. Each map task folds its whole partition
/// through [`kernels::assign_accumulate`] and ships exactly `k`
/// `(center, sum)` triples into the `reduceByKey` exchange — no per-point
/// tuple stream ever materialises.
pub fn run_spark(
    sc: &SparkContext,
    points: Vec<Point>,
    mut centers: Vec<Point>,
    iterations: u32,
    partitions: usize,
) -> Vec<Point> {
    let k = centers.len();
    // Chunk points per partition exactly like `parallelize` would, then
    // batch within each chunk, so partition boundaries (and the per-
    // partition fold order) match the pipelined engine's.
    let chunk = points.len().div_ceil(partitions).max(1);
    let parts: Vec<Vec<F64Batch>> = points.chunks(chunk).map(batch_points).collect();
    let metrics = sc.metrics().clone();
    let rdd = sc
        .parallelize(parts, partitions)
        .persist(StorageLevel::MemoryOnly);
    for _ in 0..iterations {
        let cb = centers_batch(&centers);
        let m = metrics.clone();
        let sums = rdd
            .map_partitions(move |groups: &[Vec<F64Batch>]| {
                let mut partial: Option<Partial> = None;
                for g in groups {
                    let p = assign_partition(g, &cb, &m);
                    partial = Some(match partial {
                        Some(acc) => acc.merge(p),
                        None => p,
                    });
                }
                partial
                    .unwrap_or_else(|| Partial::new(k))
                    .sums
                    .into_iter()
                    .enumerate()
                    .collect::<Vec<(usize, (f64, f64, u64))>>()
            })
            .reduce_by_key(|a, b| {
                a.0 += b.0;
                a.1 += b.1;
                a.2 += b.2;
            })
            .collect_as_map();
        let mut partial = Partial::new(k);
        for (c, (x, y, n)) in sums {
            partial.sums[c] = (x, y, n);
        }
        centers = partial.centers(&centers);
        sc.metrics().add_iterations_run(1);
    }
    centers
}

/// Iteration state: the broadcast centroids, plus the in-flight partial
/// sums while a round's partials are being merged.
#[derive(Debug, Clone)]
struct KState {
    centers: Vec<Point>,
    partial: Option<Partial>,
}

/// Runs K-Means on the pipelined engine: a native bulk iteration whose
/// workers hold dim-major column batches and fold each round through the
/// vectorized [`kernels::assign_accumulate`] kernel.
pub fn run_flink(
    env: &FlinkEnv,
    points: Vec<Point>,
    centers: Vec<Point>,
    iterations: u32,
) -> Vec<Point> {
    let parallelism = env.parallelism();
    let chunk = points.len().div_ceil(parallelism).max(1);
    let parts: Vec<Vec<F64Batch>> = points.chunks(chunk).map(batch_points).collect();
    let metrics = env.metrics().clone();
    let state = KState {
        centers,
        partial: None,
    };
    let result = bulk_iterate(
        env,
        parts,
        state,
        iterations,
        move |s, part: &[F64Batch]| {
            let cb = centers_batch(&s.centers);
            KState {
                centers: s.centers.clone(),
                partial: Some(assign_partition(part, &cb, &metrics)),
            }
        },
        |a, b| KState {
            centers: a.centers,
            partial: match (a.partial, b.partial) {
                (Some(x), Some(y)) => Some(x.merge(y)),
                (x, y) => x.or(y),
            },
        },
        |s| KState {
            centers: s
                .partial
                .as_ref()
                .map(|p| p.centers(&s.centers))
                .unwrap_or(s.centers),
            partial: None,
        },
    );
    result.centers
}

/// Sequential oracle.
pub fn oracle(points: &[Point], mut centers: Vec<Point>, iterations: u32) -> Vec<Point> {
    let k = centers.len();
    for _ in 0..iterations {
        let mut partial = Partial::new(k);
        for p in points {
            partial.add(nearest(&centers, p), p);
        }
        centers = partial.centers(&centers);
    }
    centers
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmark_datagen::points::{PointsConfig, PointsGen};

    fn dataset(n: usize) -> (Vec<Point>, Vec<Point>) {
        let mut g = PointsGen::new(
            PointsConfig {
                clusters: 4,
                box_half_width: 100.0,
                sigma: 3.0,
            },
            5,
        );
        let centers = g.true_centers().to_vec();
        // Perturbed initial centers.
        let init: Vec<Point> = centers
            .iter()
            .map(|c| Point {
                x: c.x + 10.0,
                y: c.y - 8.0,
            })
            .collect();
        (g.points(n), init)
    }

    fn close_points(a: &[Point], b: &[Point], tol: f64) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(p, q)| (p.x - q.x).abs() < tol && (p.y - q.y).abs() < tol)
    }

    #[test]
    fn both_engines_match_the_oracle() {
        let (points, init) = dataset(4000);
        let expect = oracle(&points, init.clone(), 10);
        let sc = SparkContext::new(4);
        let spark = run_spark(&sc, points.clone(), init.clone(), 10, 4);
        assert!(close_points(&spark, &expect, 1e-9), "spark drifted");
        let env = FlinkEnv::new(4);
        let flink = run_flink(&env, points, init, 10);
        assert!(close_points(&flink, &expect, 1e-9), "flink drifted");
    }

    /// The batch path against the oracle, iteration by iteration: running
    /// `i` iterations through the vectorized kernel must land on the
    /// oracle's centroids (identical assignment decisions; summation order
    /// differs only across partition merges, hence the tight float
    /// tolerance rather than bit equality), with every point assigned by
    /// the kernel.
    #[test]
    fn batch_path_matches_record_adapters_each_iteration() {
        let (points, init) = dataset(3000);
        for iters in 1..=4u32 {
            let expect = oracle(&points, init.clone(), iters);
            let sc = SparkContext::new(4);
            let batch = run_spark(&sc, points.clone(), init.clone(), iters, 4);
            assert!(
                close_points(&batch, &expect, 1e-9),
                "spark batch path diverged at iteration {iters}"
            );
            assert!(
                sc.metrics().points_assigned_vectorized() >= iters as u64 * 3000,
                "batch path must assign every point through the kernel"
            );

            let env = FlinkEnv::new(4);
            let fbatch = run_flink(&env, points.clone(), init.clone(), iters);
            assert!(
                close_points(&fbatch, &expect, 1e-9),
                "flink batch path diverged at iteration {iters}"
            );
            assert!(env.metrics().points_assigned_vectorized() >= iters as u64 * 3000);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
        /// The batch path matches the oracle for arbitrary point clouds,
        /// center counts, and partitionings — not just the Gaussian test
        /// dataset.
        #[test]
        fn batch_record_parity_on_arbitrary_inputs(
            coords in proptest::collection::vec((-1000.0f64..1000.0, -1000.0f64..1000.0), 1..400),
            k in 1usize..6,
            partitions in 1usize..6,
            iters in 1u32..4,
        ) {
            let points: Vec<Point> = coords.iter().map(|&(x, y)| Point { x, y }).collect();
            let init: Vec<Point> = (0..k)
                .map(|i| {
                    let p = points[i % points.len()];
                    Point { x: p.x + i_f(i), y: p.y - i_f(i) }
                })
                .collect();
            let expect = oracle(&points, init.clone(), iters);
            let sc = SparkContext::new(partitions);
            let batch = run_spark(&sc, points.clone(), init.clone(), iters, partitions);
            proptest::prop_assert!(close_points(&batch, &expect, 1e-9), "spark diverged");
            let env = FlinkEnv::new(partitions);
            let fbatch = run_flink(&env, points, init, iters);
            proptest::prop_assert!(close_points(&fbatch, &expect, 1e-9), "flink diverged");
        }
    }

    /// Deterministic small offset so duplicate seed points still yield
    /// distinct initial centers.
    fn i_f(i: usize) -> f64 {
        i as f64 * 0.125
    }

    #[test]
    fn converges_to_true_centers() {
        let (points, init) = dataset(8000);
        let out = oracle(&points, init, 10);
        // Every true cluster center has a learned center within ~1 sigma.
        let g = PointsGen::new(
            PointsConfig {
                clusters: 4,
                box_half_width: 100.0,
                sigma: 3.0,
            },
            5,
        );
        for c in g.true_centers() {
            let best = out
                .iter()
                .map(|p| p.dist2(c).sqrt())
                .fold(f64::INFINITY, f64::min);
            assert!(best < 3.0, "center {c:?} missed by {best}");
        }
    }

    #[test]
    fn flink_schedules_once_spark_unrolls() {
        let (points, init) = dataset(2000);
        let sc = SparkContext::new(4);
        let _ = run_spark(&sc, points.clone(), init.clone(), 8, 4);
        let env = FlinkEnv::new(4);
        let _ = run_flink(&env, points, init, 8);
        // Spark: ≥ partitions × iterations task launches; Flink: one wave.
        assert!(sc.metrics().tasks_launched() >= 4 * 8);
        assert!(env.metrics().tasks_launched() <= 8);
        assert_eq!(env.metrics().iterations_run(), 8);
    }

    #[test]
    fn spark_cache_serves_iterations() {
        let (points, init) = dataset(1000);
        let sc = SparkContext::new(2);
        let _ = run_spark(&sc, points, init, 5, 2);
        // Iterations 2..5 must hit the persisted points RDD.
        assert!(sc.metrics().cache_hits() >= 2 * 4);
    }

    #[test]
    fn plans_validate_and_iterate() {
        let scale = KMeansScale::paper();
        for fw in Framework::BOTH {
            let p = plan(fw, &scale);
            assert!(p.validate().is_ok(), "{fw}");
            let it = p
                .nodes()
                .iter()
                .find(|n| n.iteration.is_some())
                .expect("iteration node");
            assert_eq!(it.iteration.as_ref().unwrap().iterations, 10);
        }
    }
}
