//! Tier-1 smoke test for the columnar batch execution core: the three
//! migrated workloads (Word Count, Grep, TeraSort) run oracle-verified on
//! both engines, and the `batches_processed` / `rows_selected` counters
//! prove the vectorized batch path actually executed.

use flowmark_datagen::terasort::TeraGen;
use flowmark_datagen::text::{TextGen, TextGenConfig};
use flowmark_engine::{FlinkEnv, SparkContext};
use flowmark_workloads::{grep, terasort, wordcount};

const PARTS: usize = 4;

fn new_sc() -> SparkContext {
    SparkContext::new(PARTS)
}

fn new_env() -> FlinkEnv {
    FlinkEnv::new(PARTS)
}

fn corpus(seed: u64, n: usize) -> Vec<String> {
    TextGen::new(TextGenConfig::default(), seed).lines(n)
}

#[test]
fn wordcount_batch_path_executes_and_matches_oracle() {
    let lines = corpus(7, 3000);
    let expect = wordcount::oracle(&lines);

    let sc = new_sc();
    assert_eq!(wordcount::run_spark(&sc, lines.clone(), PARTS), expect);
    let m = sc.metrics().snapshot();
    assert!(m.batches_processed > 0, "spark batch path did not run");
    assert!(m.rows_selected > 0, "spark kernels touched no rows");

    let env = new_env();
    assert_eq!(wordcount::run_flink(&env, lines), expect);
    let m = env.metrics().snapshot();
    assert!(m.batches_processed > 0, "flink batch path did not run");
    assert!(m.rows_selected > 0, "flink kernels touched no rows");
}

#[test]
fn grep_batch_path_executes_and_matches_oracle() {
    let config = TextGenConfig {
        needle_selectivity: 0.05,
        ..TextGenConfig::default()
    };
    let needle = config.needle.clone();
    let lines = TextGen::new(config, 3).lines(3000);
    let expect = grep::oracle(&lines, &needle);
    assert!(expect > 0, "corpus must contain matches");

    let sc = new_sc();
    assert_eq!(grep::run_spark(&sc, lines.clone(), &needle, PARTS), expect);
    let m = sc.metrics().snapshot();
    assert!(m.batches_processed > 0, "spark batch path did not run");
    assert_eq!(m.rows_selected, expect, "rows_selected must count the matches");

    let env = new_env();
    assert_eq!(grep::run_flink(&env, lines, &needle), expect);
    let m = env.metrics().snapshot();
    assert!(m.batches_processed > 0, "flink batch path did not run");
    assert_eq!(m.rows_selected, expect, "rows_selected must count the matches");
}

#[test]
fn terasort_batch_path_executes_and_matches_oracle() {
    let records = TeraGen::new(11).records(5000);
    // TeraGen keys are distinct, so the sorted order of whole records
    // (payloads included) is defined.
    let expect = terasort::oracle(records.clone());
    let flat = |out: Vec<Vec<flowmark_datagen::terasort::Record>>| -> Vec<_> {
        out.into_iter().flatten().collect()
    };

    let sc = new_sc();
    let spark = terasort::run_spark(&sc, records.clone(), PARTS);
    terasort::validate_output(records.len(), &spark).expect("spark output invalid");
    assert!(
        flat(spark) == expect,
        "spark output differs from the oracle"
    );
    let m = sc.metrics().snapshot();
    assert!(m.batches_processed > 0, "spark batch shuffle did not run");

    let env = new_env();
    let flink = terasort::run_flink(&env, records, PARTS);
    terasort::validate_output(expect.len(), &flink).expect("flink output invalid");
    assert!(
        flat(flink) == expect,
        "flink output differs from the oracle"
    );
    let m = env.metrics().snapshot();
    assert!(m.batches_processed > 0, "flink batch shuffle did not run");
}

#[test]
fn empty_inputs_take_the_batch_path_without_panicking() {
    let sc = new_sc();
    assert!(wordcount::run_spark(&sc, Vec::new(), PARTS).is_empty());
    let env = new_env();
    assert_eq!(grep::run_flink(&env, Vec::new(), "needle"), 0);
    let sc = new_sc();
    let out = terasort::run_spark(&sc, Vec::new(), PARTS);
    terasort::validate_output(0, &out).expect("empty sort invalid");
}
