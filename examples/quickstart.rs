//! Quickstart: run the same Word Count on both engines, compare results,
//! then reproduce one cell of the paper's Fig 1 with the simulator.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use flowmark_core::config::Framework;
use flowmark_core::report::render_figure;
use flowmark_core::experiment::Experiment;
use flowmark_datagen::text::{TextGen, TextGenConfig};
use flowmark_engine::{FlinkEnv, SparkContext};
use flowmark_sim::{simulate, Calibration};
use flowmark_workloads::presets;
use flowmark_workloads::wordcount::{self, WordCountScale};

fn main() {
    // ---- 1. Real execution on both engines --------------------------------
    let lines = TextGen::new(TextGenConfig::default(), 42).lines(50_000);
    println!("Word Count over {} synthetic Wikipedia-like lines\n", lines.len());

    let sc = SparkContext::new(8);
    let t = std::time::Instant::now();
    let spark_counts = wordcount::run_spark(&sc, lines.clone(), 8);
    println!(
        "staged engine (Spark semantics):    {} distinct words in {:?} ({} tasks, combine ratio {:.3})",
        spark_counts.len(),
        t.elapsed(),
        sc.metrics().tasks_launched(),
        sc.metrics().combine_ratio(),
    );

    let env = FlinkEnv::new(8);
    let t = std::time::Instant::now();
    let flink_counts = wordcount::run_flink(&env, lines.clone());
    println!(
        "pipelined engine (Flink semantics): {} distinct words in {:?} (peak {} concurrent tasks)",
        flink_counts.len(),
        t.elapsed(),
        env.peak_tasks(),
    );

    assert_eq!(spark_counts, flink_counts, "engines must agree");
    assert_eq!(spark_counts, wordcount::oracle(&lines), "and match the oracle");
    println!("results identical across engines and oracle ✓\n");

    // ---- 2. Paper-scale simulation (one cell of Fig 1) --------------------
    let nodes = 8;
    let scale = WordCountScale::per_node(nodes, 24.0);
    let run = presets::wordcount_config(nodes);
    let cal = Calibration::default();
    let mut exp = Experiment::new("quickstart", "Word Count, 8 nodes x 24 GB (Fig 1 cell)", "Nodes");
    for fw in Framework::BOTH {
        let plan = wordcount::plan(fw, &scale);
        for seed in 0..5 {
            let r = simulate(&plan, fw, &run, &cal, seed).expect("valid config");
            exp.record(fw, nodes as f64, r.seconds);
        }
    }
    print!("{}", render_figure(&exp.figure()));
}
