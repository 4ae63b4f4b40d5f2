//! EXPERIMENTS.md generation: every figure as a markdown table plus shape
//! verdicts, every resource figure as a correlation summary.

use std::fmt::Write as _;

use flowmark_core::report::{figure_markdown, render_correlation};
use flowmark_sim::Calibration;

use crate::experiments::{self, ResourceFigure, Table7Row};
use crate::paper;
use crate::check_shape;

/// Renders one time figure section.
fn figure_section(out: &mut String, fig: &flowmark_core::experiment::Figure, expect_id: &str) {
    let check = check_shape(fig, paper::expected_winner(expect_id));
    let _ = writeln!(out, "### {} — {}\n", fig.id, fig.title);
    let _ = writeln!(out, "{}", figure_markdown(fig));
    let _ = writeln!(
        out,
        "Shape: {} — {}\n",
        check.verdict,
        if check.matches_paper {
            "**matches the paper**"
        } else {
            "**does not match the paper**"
        }
    );
}

/// Renders one resource figure section.
fn resource_section(out: &mut String, rf: &ResourceFigure) {
    let _ = writeln!(out, "### {} — {}\n", rf.id, rf.title);
    let _ = writeln!(
        out,
        "- Spark: {:.0}s total, pipelining degree {:.2}",
        rf.spark.seconds, rf.spark_report.pipelining_degree
    );
    let _ = writeln!(
        out,
        "- Flink: {:.0}s total, pipelining degree {:.2}\n",
        rf.flink.seconds, rf.flink_report.pipelining_degree
    );
    let _ = writeln!(out, "Spark operator correlation:\n```");
    let _ = write!(out, "{}", render_correlation(&rf.spark_report));
    let _ = writeln!(out, "```\nFlink operator correlation:\n```");
    let _ = write!(out, "{}", render_correlation(&rf.flink_report));
    let _ = writeln!(out, "```\n");
}

/// Renders Table VII.
fn table7_section(out: &mut String, rows: &[Table7Row]) {
    let _ = writeln!(out, "### table7 — Large graph (1.7 B vertices / 64 B edges)\n");
    let _ = writeln!(
        out,
        "| Nodes | Flink PR load | Flink PR iter | Spark PR load | Spark PR iter | Flink CC load | Flink CC iter | Spark CC load | Spark CC iter |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            r.nodes,
            r.flink_pr.0.render(),
            r.flink_pr.1.render(),
            r.spark_pr.0.render(),
            r.spark_pr.1.render(),
            r.flink_cc.0.render(),
            r.flink_cc.1.render(),
            r.spark_cc.0.render(),
            r.spark_cc.1.render(),
        );
    }
    let _ = writeln!(out);
}

/// Generates the full EXPERIMENTS.md body. Slow (runs every experiment).
pub fn experiments_markdown(cal: &Calibration) -> Result<String, crate::HarnessError> {
    let mut out = String::new();
    let _ = writeln!(out, "# EXPERIMENTS — paper vs. flowmark\n");
    let _ = writeln!(
        out,
        "Every figure and table of *Spark versus Flink: Understanding \
         Performance in Big Data Analytics Frameworks* (CLUSTER 2016), \
         regenerated by the flowmark simulator ({} trials per cell, mean ± \
         stddev). Absolute seconds are calibrated once in \
         `flowmark_sim::Calibration`; the **shapes** (winners, gaps, \
         crossovers, failures) are emergent and checked against the paper \
         below.\n",
        experiments::TRIALS
    );

    let _ = writeln!(out, "## Calibration anchors (paper caption totals)\n");
    let _ = writeln!(out, "```");
    let _ = write!(out, "{}", crate::calibration_report(cal)?);
    let _ = writeln!(out, "```");
    let _ = writeln!(
        out,
        "\n## Known deviations\n\n\
         - **fig13 (Page Rank, Medium graph)**: our model has Spark ahead by \
         up to ~1.26×. The paper's text never asserts a medium-PR winner \
         (§VIII claims Flink's advantage for *batch and small graph* \
         workloads only); our Spark lean comes from Flink's count-vertices \
         job re-reading the 30 GB dataset and Table VI capping Flink's \
         parallelism below the core count.\n\
         - **abl-par (Spark parallelism −2/3)**: the paper measured +10%; we \
         reproduce +0.3%. In our model Word Count's map tasks are fixed by \
         HDFS blocks, and the map-side combiner shrinks the reduce stage to \
         near nothing, so `spark.default.parallelism` has little left to \
         slow down. The mechanism (imperfect CPU/I-O overlap at low \
         tasks-per-core) is implemented and visible on workloads whose \
         shuffle stages carry real data.\n\
         - **Table VII absolutes**: the failure pattern and the \
         who-wins-at-97-nodes shape match, but our large-graph iteration \
         times run ~1.4-4× over the paper's. A single per-edge CPU constant \
         cannot reproduce the paper's own scale economies (its effective \
         per-edge cost drops ~4× from the Medium graph at 27 nodes to the \
         Large graph at 97); we keep one constant and document the residual \
         rather than fit per-figure constants.\n\
         - **fig1 at 2-8 nodes**: the paper reports near-parity at small \
         clusters with Flink pulling ahead at 16/32 nodes; our ~10% Flink \
         advantage is scale-independent because its source (serializer-\
         sensitive aggregation CPU) is per-record.\n"
    );
    let _ = writeln!(out, "## Batch workloads\n");
    figure_section(&mut out, &experiments::fig1(cal)?, "fig1-large");
    figure_section(&mut out, &experiments::fig2(cal)?, "fig2");
    resource_section(&mut out, &experiments::fig3(cal)?);
    figure_section(&mut out, &experiments::fig4(cal)?, "fig4");
    figure_section(&mut out, &experiments::fig5(cal)?, "fig5");
    resource_section(&mut out, &experiments::fig6(cal)?);
    figure_section(&mut out, &experiments::fig7(cal)?, "fig7");
    figure_section(&mut out, &experiments::fig8(cal)?, "fig8");
    resource_section(&mut out, &experiments::fig9(cal)?);

    let _ = writeln!(out, "## Iterative workloads\n");
    resource_section(&mut out, &experiments::fig10(cal)?);
    figure_section(&mut out, &experiments::fig11(cal)?, "fig11");
    figure_section(&mut out, &experiments::fig12(cal)?, "fig12");
    figure_section(&mut out, &experiments::fig13(cal)?, "fig13");
    figure_section(&mut out, &experiments::fig14(cal)?, "fig14");
    figure_section(&mut out, &experiments::fig15(cal)?, "fig15");
    resource_section(&mut out, &experiments::fig16(cal)?);
    resource_section(&mut out, &experiments::fig17(cal)?);

    let _ = writeln!(out, "## Large graph\n");
    table7_section(&mut out, &experiments::table7(cal)?);

    let _ = writeln!(out, "## Ablations\n");
    let (bulk, delta) = experiments::ablation_delta(cal)?;
    let _ = writeln!(
        out,
        "- **Delta vs bulk iterations** (CC, Medium graph, 27 nodes): bulk \
         {bulk:.0}s vs delta {delta:.0}s — delta {:.2}x faster (paper: delta \
         clearly faster, driving the up-to-30% CC gap).",
        bulk / delta
    );
    let (java, kryo) = experiments::ablation_serializer(cal)?;
    let _ = writeln!(
        out,
        "- **Serializer** (Spark WC, 16 nodes): Java {java:.0}s vs Kryo \
         {kryo:.0}s — Kryo {:.1}% faster (§IV-D: Kryo \"can be more \
         efficient\").",
        (java - kryo) / java * 100.0
    );
    let (tuned, reduced) = experiments::ablation_parallelism(cal)?;
    let _ = writeln!(
        out,
        "- **Parallelism** (Spark WC, 8 nodes): tuned {tuned:.0}s vs \
         2×cores {reduced:.0}s — {:+.1}% (paper §VI-A: \"execution time \
         increased by 10%\").",
        (reduced - tuned) / tuned * 100.0
    );
    let parts = experiments::ablation_partitions(cal)?;
    let best = parts.iter().map(|(_, t)| *t).fold(f64::INFINITY, f64::min);
    let worst = parts.iter().map(|(_, t)| *t).fold(0.0, f64::max);
    let _ = writeln!(
        out,
        "- **Edge partitions** (Spark PR, Medium graph, 24 nodes): {} — \
         worst/best = {:.2}x (paper §VI-E: \"a large drop in performance \
         (up to 50%)\" away from the tuned value).",
        parts
            .iter()
            .map(|(ep, t)| format!("{ep}→{t:.0}s"))
            .collect::<Vec<_>>()
            .join(", "),
        worst / best
    );
    let (ts_spark, ts_flink) = experiments::ablation_terasort_memory(cal)?;
    let _ = writeln!(
        out,
        "- **Tera Sort 27 nodes × 75 GB/node, 102 GB memory**: Spark \
         {ts_spark:.0}s vs Flink {ts_flink:.0}s — Flink {:.1}% faster \
         (paper §VI-C: \"Flink showed 15% smaller execution times\").",
        (ts_spark - ts_flink) / ts_spark * 100.0
    );
    let _ = writeln!(out, "\n## Wall-clock bench artifacts\n");
    let _ = writeln!(
        out,
        "Committed `BENCH_*.json` reports are frozen artifacts of the retired \
         `repro bench --smoke`, a best-of-3 smoke bench that timed the real \
         engines (not the simulator) before/after each hot-path rewrite. \
         `flowbench` (`crates/flowbench`) superseded it; no code reads the \
         files any more. `BENCH_PR1_SEED.json` is the pre-optimization baseline, \
         `BENCH_PR1.json` the shuffle overhaul, `BENCH_PR5.json` the CSR + \
         sender-side-combining iteration rewrite, and `BENCH_PR6.json` the \
         columnar batch-execution core (typed column batches, vectorized \
         filter/hash-agg kernels, batch-granularity shuffle) measured \
         against a baseline captured immediately before it — headline \
         cells are the three migrated workloads: Word Count ~2.0-2.2x, \
         Grep ~1.7-1.8x, TeraSort ~1.4-1.9x."
    );
    Ok(out)
}
