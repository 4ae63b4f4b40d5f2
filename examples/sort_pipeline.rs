//! TeraSort end to end: generate TeraGen records, range-partition them with
//! the shared TotalOrderPartitioner, sort on both engines, validate the
//! output contract — then regenerate the paper's Fig 8 strong-scaling
//! series with the simulator.
//!
//! ```text
//! cargo run --release --example sort_pipeline
//! ```

use flowmark_core::config::Framework;
use flowmark_core::report::render_figure;
use flowmark_core::experiment::Experiment;
use flowmark_datagen::terasort::TeraGen;
use flowmark_engine::{FlinkEnv, SparkContext};
use flowmark_sim::{simulate, Calibration};
use flowmark_workloads::presets;
use flowmark_workloads::terasort::{self, TeraSortScale};

fn main() {
    // ---- 1. Real sort on both engines -------------------------------------
    let records = TeraGen::new(2026).records(200_000);
    println!("sorting {} TeraGen records (100 B each)...\n", records.len());

    let sc = SparkContext::new(8);
    let t = std::time::Instant::now();
    let spark_out = terasort::run_spark(&sc, records.clone(), 16);
    terasort::validate_output(records.len(), &spark_out).expect("spark output contract");
    println!(
        "staged engine:    sorted into {} range partitions in {:?} (shuffled {} records)",
        spark_out.len(),
        t.elapsed(),
        sc.metrics().records_shuffled()
    );

    let env = FlinkEnv::new(8);
    let t = std::time::Instant::now();
    let flink_out = terasort::run_flink(&env, records.clone(), 16);
    terasort::validate_output(records.len(), &flink_out).expect("flink output contract");
    println!(
        "pipelined engine: sorted into {} range partitions in {:?} (peak {} concurrent tasks)",
        flink_out.len(),
        t.elapsed(),
        env.peak_tasks()
    );
    assert_eq!(
        spark_out.into_iter().flatten().collect::<Vec<_>>(),
        flink_out.into_iter().flatten().collect::<Vec<_>>(),
        "both engines must produce the identical total order"
    );
    println!("identical total order from both engines ✓\n");

    // ---- 2. Fig 8 at paper scale: 3.5 TB, 55/73/97 nodes -------------------
    let cal = Calibration::default();
    let scale = TeraSortScale::total_tb(3.5);
    let mut exp = Experiment::new("fig8", "Tera Sort - adding nodes, same dataset (3.5TB)", "Nodes");
    for nodes in [55u32, 73, 97] {
        let run = presets::terasort_config(nodes);
        for fw in Framework::BOTH {
            let plan = terasort::plan(fw, &scale);
            for seed in 0..5 {
                let r = simulate(&plan, fw, &run, &cal, seed).expect("valid");
                exp.record(fw, nodes as f64, r.seconds);
            }
        }
    }
    print!("{}", render_figure(&exp.figure()));
    println!(
        "\nnote the paper's Fig 7/8 signature: Flink ahead on average, with \
         larger error bars — the pipelined run shares one disk between all \
         of its concurrent streams (§VI-C's I/O interference)."
    );
}
