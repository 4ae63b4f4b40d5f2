//! Log analytics: the paper's batch workloads (Grep + Word Count) as a
//! realistic pipeline — scan service logs for error lines, then rank the
//! noisiest tokens — and a demonstration of the §VI-B persistence
//! asymmetry: the staged engine can persist the filtered RDD across the
//! two jobs; the pipelined engine recomputes it.
//!
//! ```text
//! cargo run --release --example log_analytics
//! ```

use flowmark_datagen::text::{TextGen, TextGenConfig};
use flowmark_engine::cache::StorageLevel;
use flowmark_engine::{FlinkEnv, SparkContext};

fn main() {
    // Synthetic "service logs": 1 % of lines carry the error marker.
    let config = TextGenConfig {
        needle_selectivity: 0.01,
        needle: "ERROR".to_string(),
        ..TextGenConfig::default()
    };
    let lines = TextGen::new(config, 7).lines(120_000);
    println!("scanning {} log lines for ERROR...\n", lines.len());

    // ---- staged engine: filter once, persist, reuse twice -----------------
    let sc = SparkContext::new(8);
    let errors = sc
        .parallelize(lines.clone(), 8)
        .filter(|l| l.contains("ERROR"))
        .persist(StorageLevel::MemoryOnly);
    let n_errors = errors.count();
    // Second job over the SAME filtered data: served from the cache.
    let top_tokens = errors
        .flat_map(|l| l.split_whitespace().map(|w| (w.to_string(), 1u64)).collect::<Vec<_>>())
        .reduce_by_key(|a, b| *a += b)
        .collect();
    let spark_computes = sc.metrics().compute_calls();
    let spark_hits = sc.metrics().cache_hits();
    println!(
        "staged engine:    {} error lines, {} distinct tokens; {} partition computations, {} cache hits",
        n_errors,
        top_tokens.len(),
        spark_computes,
        spark_hits
    );

    // ---- pipelined engine: no persistence control (§VI-B) -----------------
    let env = FlinkEnv::new(8);
    let errors_ds = env
        .from_collection(lines.clone())
        .filter(|l| l.contains("ERROR"));
    let n_errors_f = errors_ds.count();
    let top_tokens_f = errors_ds
        .flat_map(|l| l.split_whitespace().map(|w| (w.to_string(), 1u64)).collect::<Vec<_>>())
        .group_reduce(|a, b| *a += b)
        .collect();
    println!(
        "pipelined engine: {} error lines, {} distinct tokens; {} partition computations, no cache",
        n_errors_f,
        top_tokens_f.len(),
        env.metrics().compute_calls()
    );

    assert_eq!(n_errors, n_errors_f);
    assert_eq!(top_tokens.len(), top_tokens_f.len());
    assert!(
        env.metrics().compute_calls() > spark_computes,
        "the engine without persistence control must recompute the filter \
         (the paper's Grep discussion, §VI-B)"
    );
    println!(
        "\nsame answers; the pipelined engine recomputed the filtered data \
         for the second job — the §VI-B asymmetry, observed live ✓"
    );
}
