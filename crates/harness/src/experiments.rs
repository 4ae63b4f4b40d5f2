//! One runner per paper figure/table.
//!
//! Every time figure runs both engines through the simulator for
//! [`TRIALS`] seeded trials per cell (§V: "we execute on average 5 runs for
//! each experiment") and aggregates mean ± stddev into a
//! [`flowmark_core::experiment::Figure`]. Resource figures additionally
//! return the traces, telemetry and correlation reports.

use crate::error::HarnessError;
use flowmark_core::config::{Framework, RunConfig};
use flowmark_core::correlate::{correlate, CorrelationConfig, CorrelationReport};
use flowmark_core::experiment::{CellOutcome, Experiment, Figure};
use flowmark_dataflow::plan::LogicalPlan;
use flowmark_sim::graphmem::{
    check_flink_graph_memory, check_spark_graph_memory, GraphAlgorithm,
};
use flowmark_sim::{simulate, Calibration, SimResult};
use flowmark_workloads::connected::{self, CcVariant};
use flowmark_workloads::grep::{self, GrepScale};
use flowmark_workloads::kmeans::{self, KMeansScale};
use flowmark_workloads::pagerank::{self, GraphScale};
use flowmark_workloads::terasort::{self, TeraSortScale};
use flowmark_workloads::wordcount::{self, WordCountScale};
use flowmark_workloads::presets;

/// Trials per cell (§V).
pub const TRIALS: u64 = 5;

/// Simulates one cell for `TRIALS` seeds and records it into `exp`.
fn record_cell(
    exp: &mut Experiment,
    plan: &LogicalPlan,
    fw: Framework,
    run: &RunConfig,
    cal: &Calibration,
    x: f64,
) -> Result<(), HarnessError> {
    for trial in 0..TRIALS {
        let seed = 0x5EED_0000 + x.to_bits() % 10_007 + trial * 7919 + fw as u64;
        let r = simulate(plan, fw, run, cal, seed)?;
        exp.record(fw, x, r.seconds);
    }
    Ok(())
}

/// A resource-usage figure: one simulated run per engine plus the
/// correlation analysis (the paper's methodology applied to it).
pub struct ResourceFigure {
    /// Stable id (`fig3`, ...).
    pub id: &'static str,
    /// Figure caption.
    pub title: String,
    /// Spark run.
    pub spark: SimResult,
    /// Flink run.
    pub flink: SimResult,
    /// Correlation report for Spark.
    pub spark_report: CorrelationReport,
    /// Correlation report for Flink.
    pub flink_report: CorrelationReport,
}

fn resource_figure(
    id: &'static str,
    title: String,
    spark_plan: &LogicalPlan,
    flink_plan: &LogicalPlan,
    run: &RunConfig,
    cal: &Calibration,
) -> Result<ResourceFigure, HarnessError> {
    let spark = simulate(spark_plan, Framework::Spark, run, cal, 1)?;
    let flink = simulate(flink_plan, Framework::Flink, run, cal, 1)?;
    let cc = CorrelationConfig::default();
    let spark_report = correlate(&spark.trace, &spark.telemetry, &cc);
    let flink_report = correlate(&flink.trace, &flink.telemetry, &cc);
    Ok(ResourceFigure {
        id,
        title,
        spark,
        flink,
        spark_report,
        flink_report,
    })
}

// ---------------------------------------------------------------------------
// Batch workloads
// ---------------------------------------------------------------------------

/// Fig 1: Word Count, fixed 24 GB per node, 2-32 nodes.
pub fn fig1(cal: &Calibration) -> Result<Figure, HarnessError> {
    let mut exp = Experiment::new("fig1", "Word Count - fixed problem size per node (24GB)", "Nodes");
    for nodes in [2u32, 4, 8, 16, 32] {
        let scale = WordCountScale::per_node(nodes, 24.0);
        let run = presets::wordcount_config(nodes);
        for fw in Framework::BOTH {
            let plan = wordcount::plan(fw, &scale);
            record_cell(&mut exp, &plan, fw, &run, cal, nodes as f64)?;
        }
    }
    Ok(exp.figure())
}

/// Fig 2: Word Count, 16 nodes, growing per-node datasets.
pub fn fig2(cal: &Calibration) -> Result<Figure, HarnessError> {
    let mut exp = Experiment::new("fig2", "Word Count - 16 nodes, different datasets", "GB/node");
    let run = presets::wordcount_config(16);
    for gb in [24.0, 27.0, 30.0, 33.0] {
        let scale = WordCountScale::per_node(16, gb);
        for fw in Framework::BOTH {
            let plan = wordcount::plan(fw, &scale);
            record_cell(&mut exp, &plan, fw, &run, cal, gb)?;
        }
    }
    Ok(exp.figure())
}

/// Fig 3: Word Count resource usage, 32 nodes, 768 GB.
pub fn fig3(cal: &Calibration) -> Result<ResourceFigure, HarnessError> {
    let scale = WordCountScale::per_node(32, 24.0);
    let run = presets::wordcount_config(32);
    resource_figure(
        "fig3",
        "Word Count resource usage, 32 nodes, 768 GB".into(),
        &wordcount::plan(Framework::Spark, &scale),
        &wordcount::plan(Framework::Flink, &scale),
        &run,
        cal,
    )
}

/// Fig 4: Grep, fixed 24 GB per node, 2-32 nodes.
pub fn fig4(cal: &Calibration) -> Result<Figure, HarnessError> {
    let mut exp = Experiment::new("fig4", "Grep - fixed problem size per node (24GB)", "Nodes");
    for nodes in [2u32, 4, 8, 16, 32] {
        let scale = GrepScale::per_node(nodes, 24.0);
        let run = presets::grep_config(nodes);
        for fw in Framework::BOTH {
            let plan = grep::plan(fw, &scale);
            record_cell(&mut exp, &plan, fw, &run, cal, nodes as f64)?;
        }
    }
    Ok(exp.figure())
}

/// Fig 5: Grep, 16 nodes, growing per-node datasets.
pub fn fig5(cal: &Calibration) -> Result<Figure, HarnessError> {
    let mut exp = Experiment::new("fig5", "Grep - 16 nodes, different datasets", "GB/node");
    let run = presets::grep_config(16);
    for gb in [24.0, 27.0, 30.0, 33.0] {
        let scale = GrepScale::per_node(16, gb);
        for fw in Framework::BOTH {
            let plan = grep::plan(fw, &scale);
            record_cell(&mut exp, &plan, fw, &run, cal, gb)?;
        }
    }
    Ok(exp.figure())
}

/// Fig 6: Grep resource usage, 32 nodes, 768 GB.
pub fn fig6(cal: &Calibration) -> Result<ResourceFigure, HarnessError> {
    let scale = GrepScale::per_node(32, 24.0);
    let run = presets::grep_config(32);
    resource_figure(
        "fig6",
        "Grep resource usage, 32 nodes, 768 GB".into(),
        &grep::plan(Framework::Spark, &scale),
        &grep::plan(Framework::Flink, &scale),
        &run,
        cal,
    )
}

/// Fig 7: Tera Sort, fixed 32 GB per node, 17-63 nodes.
pub fn fig7(cal: &Calibration) -> Result<Figure, HarnessError> {
    let mut exp = Experiment::new("fig7", "Tera Sort - fixed problem size per node (32 GB)", "Nodes");
    for nodes in [17u32, 34, 63] {
        let scale = TeraSortScale::per_node(nodes, 32.0);
        let run = presets::terasort_config(nodes);
        for fw in Framework::BOTH {
            let plan = terasort::plan(fw, &scale);
            record_cell(&mut exp, &plan, fw, &run, cal, nodes as f64)?;
        }
    }
    Ok(exp.figure())
}

/// Fig 8: Tera Sort, 3.5 TB total, 55-97 nodes.
pub fn fig8(cal: &Calibration) -> Result<Figure, HarnessError> {
    let mut exp = Experiment::new("fig8", "Tera Sort - adding nodes, same dataset (3.5TB)", "Nodes");
    let scale = TeraSortScale::total_tb(3.5);
    for nodes in [55u32, 73, 97] {
        let run = presets::terasort_config(nodes);
        for fw in Framework::BOTH {
            let plan = terasort::plan(fw, &scale);
            record_cell(&mut exp, &plan, fw, &run, cal, nodes as f64)?;
        }
    }
    Ok(exp.figure())
}

/// Fig 9: Tera Sort resource usage, 55 nodes, 3.5 TB.
pub fn fig9(cal: &Calibration) -> Result<ResourceFigure, HarnessError> {
    let scale = TeraSortScale::total_tb(3.5);
    let run = presets::terasort_config(55);
    resource_figure(
        "fig9",
        "Tera Sort resource usage, 55 nodes, 3.5 TB".into(),
        &terasort::plan(Framework::Spark, &scale),
        &terasort::plan(Framework::Flink, &scale),
        &run,
        cal,
    )
}

// ---------------------------------------------------------------------------
// Iterative workloads
// ---------------------------------------------------------------------------

/// Fig 10: K-Means resource usage, 24 nodes, 10 iterations.
pub fn fig10(cal: &Calibration) -> Result<ResourceFigure, HarnessError> {
    let scale = KMeansScale::paper();
    let run = presets::kmeans_config(24);
    resource_figure(
        "fig10",
        "K-Means resource usage, 24 nodes, 10 iterations, 1.2 B samples".into(),
        &kmeans::plan(Framework::Spark, &scale),
        &kmeans::plan(Framework::Flink, &scale),
        &run,
        cal,
    )
}

/// Fig 11: K-Means, increasing cluster size, 1.2 B samples.
pub fn fig11(cal: &Calibration) -> Result<Figure, HarnessError> {
    let mut exp = Experiment::new(
        "fig11",
        "K-Means - increasing cluster size, same dataset (1.2 billion samples)",
        "Nodes",
    );
    let scale = KMeansScale::paper();
    for nodes in [8u32, 14, 20, 24] {
        let run = presets::kmeans_config(nodes);
        for fw in Framework::BOTH {
            let plan = kmeans::plan(fw, &scale);
            record_cell(&mut exp, &plan, fw, &run, cal, nodes as f64)?;
        }
    }
    Ok(exp.figure())
}

/// Fig 12: Page Rank, Small graph, increasing cluster size.
pub fn fig12(cal: &Calibration) -> Result<Figure, HarnessError> {
    let mut exp = Experiment::new("fig12", "Page Rank - Small Graph", "Nodes");
    let scale = GraphScale::small(20);
    for nodes in [8u32, 14, 20, 27] {
        let run = presets::small_graph_config(nodes);
        for fw in Framework::BOTH {
            let plan = pagerank::plan(fw, &scale);
            record_cell(&mut exp, &plan, fw, &run, cal, nodes as f64)?;
        }
    }
    Ok(exp.figure())
}

/// Fig 13: Page Rank, Medium graph, increasing cluster size.
pub fn fig13(cal: &Calibration) -> Result<Figure, HarnessError> {
    let mut exp = Experiment::new("fig13", "Page Rank - Medium Graph", "Nodes");
    let scale = GraphScale::medium(20);
    for nodes in [24u32, 27, 34, 55] {
        let run = presets::medium_graph_config(nodes);
        for fw in Framework::BOTH {
            let plan = pagerank::plan(fw, &scale);
            record_cell(&mut exp, &plan, fw, &run, cal, nodes as f64)?;
        }
    }
    Ok(exp.figure())
}

/// Fig 14: Connected Components, Small graph.
pub fn fig14(cal: &Calibration) -> Result<Figure, HarnessError> {
    let mut exp = Experiment::new("fig14", "Connected Components - Small Graph", "Nodes");
    let scale = GraphScale::small(23);
    for nodes in [8u32, 14, 20, 27] {
        let run = presets::small_graph_config(nodes);
        for fw in Framework::BOTH {
            let plan = connected::plan(fw, &scale, CcVariant::Delta);
            record_cell(&mut exp, &plan, fw, &run, cal, nodes as f64)?;
        }
    }
    Ok(exp.figure())
}

/// Fig 15: Connected Components, Medium graph.
pub fn fig15(cal: &Calibration) -> Result<Figure, HarnessError> {
    let mut exp = Experiment::new("fig15", "Connected Components - Medium Graph", "Nodes");
    let scale = GraphScale::medium(23);
    for nodes in [27u32, 34, 55] {
        let run = presets::medium_graph_config(nodes);
        for fw in Framework::BOTH {
            let plan = connected::plan(fw, &scale, CcVariant::Delta);
            record_cell(&mut exp, &plan, fw, &run, cal, nodes as f64)?;
        }
    }
    Ok(exp.figure())
}

/// Fig 16: Page Rank resource usage, Small graph, 27 nodes, 20 iterations.
pub fn fig16(cal: &Calibration) -> Result<ResourceFigure, HarnessError> {
    let scale = GraphScale::small(20);
    let run = presets::small_graph_config(27);
    resource_figure(
        "fig16",
        "Page Rank resource usage, 27 nodes, 20 iterations, Small Graph".into(),
        &pagerank::plan(Framework::Spark, &scale),
        &pagerank::plan(Framework::Flink, &scale),
        &run,
        cal,
    )
}

/// Fig 17: Connected Components resource usage, Medium graph, 27 nodes.
pub fn fig17(cal: &Calibration) -> Result<ResourceFigure, HarnessError> {
    let scale = GraphScale::medium(23);
    let run = presets::medium_graph_config(27);
    resource_figure(
        "fig17",
        "Connected Components resource usage, 27 nodes, 23 iterations, Medium Graph".into(),
        &connected::plan(Framework::Spark, &scale, CcVariant::Delta),
        &connected::plan(Framework::Flink, &scale, CcVariant::Delta),
        &run,
        cal,
    )
}

/// A time figure: its id, the [`crate::paper::expected_winner`] id its
/// shape is checked against, and its runner.
pub struct TimeFigure {
    /// Stable id (`fig1`, ...), as `repro` accepts it.
    pub id: &'static str,
    /// Paper-expectation id; differs from `id` only for `fig1`, whose
    /// verdict is the large-cluster one.
    pub expect_id: &'static str,
    /// Regenerates the figure.
    pub run: fn(&Calibration) -> Result<Figure, HarnessError>,
}

const fn time_figure(
    id: &'static str,
    expect_id: &'static str,
    run: fn(&Calibration) -> Result<Figure, HarnessError>,
) -> TimeFigure {
    TimeFigure { id, expect_id, run }
}

/// Every time figure, in paper order.
pub static TIME_FIGURES: [TimeFigure; 11] = [
    time_figure("fig1", "fig1-large", fig1),
    time_figure("fig2", "fig2", fig2),
    time_figure("fig4", "fig4", fig4),
    time_figure("fig5", "fig5", fig5),
    time_figure("fig7", "fig7", fig7),
    time_figure("fig8", "fig8", fig8),
    time_figure("fig11", "fig11", fig11),
    time_figure("fig12", "fig12", fig12),
    time_figure("fig13", "fig13", fig13),
    time_figure("fig14", "fig14", fig14),
    time_figure("fig15", "fig15", fig15),
];

/// Looks up a time figure by its `repro` id.
pub fn find_time_figure(id: &str) -> Option<&'static TimeFigure> {
    TIME_FIGURES.iter().find(|f| f.id == id)
}

// ---------------------------------------------------------------------------
// Table VII: Large graph
// ---------------------------------------------------------------------------

/// One Table VII row.
#[derive(Debug, Clone)]
pub struct Table7Row {
    /// Cluster size.
    pub nodes: u32,
    /// (load, iterate) per framework per algorithm.
    pub flink_pr: (CellOutcome, CellOutcome),
    /// Spark Page Rank.
    pub spark_pr: (CellOutcome, CellOutcome),
    /// Flink Connected Components.
    pub flink_cc: (CellOutcome, CellOutcome),
    /// Spark Connected Components.
    pub spark_cc: (CellOutcome, CellOutcome),
}

/// Splits a simulated run into (load, iterate) times using the trace: the
/// iterate phase starts at the earliest span whose label marks an
/// iteration round.
fn split_load_iterate(result: &SimResult) -> (f64, f64) {
    let iter_start = result
        .trace
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("Iter:") || s.name.starts_with("iter"))
        .map(|s| s.start)
        .fold(f64::INFINITY, f64::min);
    if iter_start.is_finite() {
        (iter_start, result.seconds - iter_start)
    } else {
        (result.seconds, 0.0)
    }
}

/// Table VII: Page Rank (5 iterations) and Connected Components (10) on the
/// Large graph at 27, 44 and 97 nodes, failures included.
pub fn table7(cal: &Calibration) -> Result<Vec<Table7Row>, HarnessError> {
    let mut rows = Vec::new();
    for nodes in [27u32, 44, 97] {
        let run = presets::large_graph_config(nodes);
        let pr_scale = GraphScale::large(5);
        let cc_scale = GraphScale::large(10);

        let cell = |plan: &LogicalPlan, fw: Framework| -> Result<(f64, f64), HarnessError> {
            let r = simulate(plan, fw, &run, cal, 1)?;
            Ok(split_load_iterate(&r))
        };

        // Flink: the CoGroup solution set must fit in managed memory; a
        // failure kills the whole job (both cells are "no").
        let flink_mem = check_flink_graph_memory(pr_scale.vertices, pr_scale.edges, &run, cal);
        let flink_cells = |scale: &GraphScale,
                           variant: Option<CcVariant>|
         -> Result<(CellOutcome, CellOutcome), HarnessError> {
            match &flink_mem {
                Err(e) => Ok((
                    CellOutcome::Failed(e.to_string()),
                    CellOutcome::Failed(e.to_string()),
                )),
                Ok(_) => {
                    let plan = match variant {
                        None => pagerank::plan(Framework::Flink, scale),
                        Some(v) => connected::plan(Framework::Flink, scale, v),
                    };
                    let (load, iter) = cell(&plan, Framework::Flink)?;
                    Ok((CellOutcome::Time(load), CellOutcome::Time(iter)))
                }
            }
        };
        let flink_pr = flink_cells(&pr_scale, None)?;
        let flink_cc = flink_cells(&cc_scale, Some(CcVariant::Delta))?;

        // Spark: the load stage spills to disk and survives; the iteration
        // working set must fit on the heap.
        let spark_cells = |scale: &GraphScale,
                           algo: GraphAlgorithm|
         -> Result<(CellOutcome, CellOutcome), HarnessError> {
            let plan = match algo {
                GraphAlgorithm::PageRank => pagerank::plan(Framework::Spark, scale),
                GraphAlgorithm::ConnectedComponents => {
                    connected::plan(Framework::Spark, scale, CcVariant::Bulk)
                }
            };
            let (load, iter) = cell(&plan, Framework::Spark)?;
            let iter_cell = match check_spark_graph_memory(algo, scale.edges, &run, cal) {
                Ok(_) => CellOutcome::Time(iter),
                Err(e) => CellOutcome::Failed(e.to_string()),
            };
            Ok((CellOutcome::Time(load), iter_cell))
        };
        let spark_pr = spark_cells(&pr_scale, GraphAlgorithm::PageRank)?;
        let spark_cc = spark_cells(&cc_scale, GraphAlgorithm::ConnectedComponents)?;

        rows.push(Table7Row {
            nodes,
            flink_pr,
            spark_pr,
            flink_cc,
            spark_cc,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// §VI-E ablation: Flink CC with bulk vs delta iterations (Medium graph,
/// 27 nodes). Returns `(bulk_seconds, delta_seconds)`.
pub fn ablation_delta(cal: &Calibration) -> Result<(f64, f64), HarnessError> {
    let scale = GraphScale::medium(23);
    let run = presets::medium_graph_config(27);
    let bulk = simulate(
        &connected::plan(Framework::Flink, &scale, CcVariant::Bulk),
        Framework::Flink,
        &run,
        cal,
        1,
    )?;
    let delta = simulate(
        &connected::plan(Framework::Flink, &scale, CcVariant::Delta),
        Framework::Flink,
        &run,
        cal,
        1,
    )?;
    Ok((bulk.seconds, delta.seconds))
}

/// §IV-D ablation: Spark Word Count with Java vs Kryo serializer (16
/// nodes, 24 GB/node). Returns `(java_seconds, kryo_seconds)`.
pub fn ablation_serializer(cal: &Calibration) -> Result<(f64, f64), HarnessError> {
    use flowmark_core::config::Serializer;
    let scale = WordCountScale::per_node(16, 24.0);
    let plan = wordcount::plan(Framework::Spark, &scale);
    let mut run = presets::wordcount_config(16);
    run.spark.serializer = Serializer::Java;
    let java = simulate(&plan, Framework::Spark, &run, cal, 1)?;
    run.spark.serializer = Serializer::Kryo;
    let kryo = simulate(&plan, Framework::Spark, &run, cal, 1)?;
    Ok((java.seconds, kryo.seconds))
}

/// §VI-A ablation: Spark Word Count with the paper's parallelism vs
/// "double the number of cores" (8 nodes) — the paper measured +10%.
/// Returns `(tuned_seconds, reduced_seconds)`.
pub fn ablation_parallelism(cal: &Calibration) -> Result<(f64, f64), HarnessError> {
    let scale = WordCountScale::per_node(8, 24.0);
    let plan = wordcount::plan(Framework::Spark, &scale);
    let tuned_run = presets::wordcount_config(8); // 768 = 6 × cores
    let tuned = simulate(&plan, Framework::Spark, &tuned_run, cal, 1)?;
    let mut reduced_run = tuned_run.clone();
    reduced_run.spark.default_parallelism = 8 * 16 * 2; // 2 × cores
    let reduced = simulate(&plan, Framework::Spark, &reduced_run, cal, 1)?;
    Ok((tuned.seconds, reduced.seconds))
}

/// §VI-E ablation: `spark.edge.partition` sensitivity on the Medium graph
/// at 24 nodes. The paper: "we experimented with larger values ... and we
/// found a large drop in performance (up to 50%)", and a drop for
/// decreased values too ("inefficient resource usage"). Returns
/// `(ep, seconds)` per setting; consolidation is off, as for GraphX's
/// 1.5-era shuffle.
pub fn ablation_partitions(cal: &Calibration) -> Result<Vec<(u32, f64)>, HarnessError> {
    let scale = GraphScale::medium(20);
    let mut out = Vec::new();
    for ep in [360u32, 1440, 8640] {
        let mut run = presets::medium_graph_config(24);
        run.spark.edge_partitions = Some(ep);
        run.spark.consolidate_files = false;
        let plan = pagerank::plan(Framework::Spark, &scale);
        let r = simulate(&plan, Framework::Spark, &run, cal, 1)?;
        out.push((ep, r.seconds));
    }
    Ok(out)
}

/// §VI-C ablation: Tera Sort, 27 nodes × 75 GB/node with 102 GB memory —
/// "Again, Flink showed 15% smaller execution times."
/// Returns `(spark_seconds, flink_seconds)`.
pub fn ablation_terasort_memory(cal: &Calibration) -> Result<(f64, f64), HarnessError> {
    let scale = TeraSortScale::per_node(27, 75.0);
    let mut run = presets::terasort_config(27);
    run.spark.executor_memory_gb = 102.0;
    run.flink.taskmanager_memory_gb = 102.0;
    let spark = simulate(
        &terasort::plan(Framework::Spark, &scale),
        Framework::Spark,
        &run,
        cal,
        1,
    )?;
    let flink = simulate(
        &terasort::plan(Framework::Flink, &scale),
        Framework::Flink,
        &run,
        cal,
        1,
    )?;
    Ok((spark.seconds, flink.seconds))
}
