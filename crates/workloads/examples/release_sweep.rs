//! What it costs to free a text source, on one thread, with the heap in the
//! steady state of a process that has already run a few jobs: the corpus
//! dropped as one `Vec<String>` against the same corpus moved into
//! `Partition::ranges` of `rows` lines and dropped range by range.
//!
//! ```text
//! cargo run --release --offline -p flowmark-workloads --example release_sweep
//! ```
//!
//! Every measured cycle is a job's life cycle: clone the corpus (a job owns
//! its input), decode it into `DEFAULT_BATCH_ROWS`-row column batches, free
//! the corpus, free the batches. Only the corpus free is timed (plus, for
//! the ranges, the cut that moves the lines into them). Warm-up cycles run
//! first, so the first free does not see the fresh heap a new process
//! frees into. Each cell alternates five cycles per side and prints each
//! side's median, with the minor faults of that median cycle.

use std::hint::black_box;
use std::time::Instant;

use flowmark_columnar::{StrColumn, DEFAULT_BATCH_ROWS};
use flowmark_datagen::text::{TextGen, TextGenConfig};
use flowmark_engine::shuffle::Partition;

const LINES: [usize; 4] = [100_000, 300_000, 600_000, 1_200_000];
const ROWS: [usize; 5] = [1_024, 2_048, 4_096, 8_192, 16_384];
const WARM_UP: usize = 3;
const CYCLES: usize = 5;

/// This process's minor page faults so far (`/proc/self/stat` field 10).
fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let (_, fields) = s.rsplit_once(')')?;
            fields.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// One job's cycle over the first `n` lines; `release` frees the corpus and
/// returns the seconds it took.
fn cycle(corpus: &[String], n: usize, release: impl FnOnce(Vec<String>) -> f64) -> (f64, u64) {
    let lines = corpus[..n].to_vec();
    let batches = black_box(StrColumn::batches_from_lines(&lines, DEFAULT_BATCH_ROWS));
    let faults = minor_faults();
    let secs = release(lines);
    let faults = minor_faults() - faults;
    drop(batches);
    (secs, faults)
}

fn as_one_vector(lines: Vec<String>) -> f64 {
    let start = Instant::now();
    drop(lines);
    start.elapsed().as_secs_f64()
}

fn as_ranges(lines: Vec<String>, rows: usize) -> f64 {
    let start = Instant::now();
    drop(black_box(Partition::ranges(lines, rows)));
    start.elapsed().as_secs_f64()
}

/// The median cycle of `CYCLES`: (milliseconds, minor faults).
fn median(mut runs: Vec<(f64, u64)>) -> (f64, u64) {
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (secs, faults) = runs[runs.len() / 2];
    (secs * 1e3, faults)
}

fn main() {
    let corpus = TextGen::new(TextGenConfig::default(), 9).lines(LINES[LINES.len() - 1]);
    for _ in 0..WARM_UP {
        cycle(&corpus, corpus.len(), as_one_vector);
    }
    println!(
        "{:>9} {:>6} {:>10} {:>7} {:>10} {:>7} {:>8}",
        "lines", "rows", "vector ms", "faults", "ranges ms", "faults", "speedup"
    );
    for n in LINES {
        for rows in ROWS {
            // Alternate the two sides so drift hits both alike.
            let (vector, ranges): (Vec<_>, Vec<_>) = (0..CYCLES)
                .map(|_| {
                    (
                        cycle(&corpus, n, as_one_vector),
                        cycle(&corpus, n, |lines| as_ranges(lines, rows)),
                    )
                })
                .unzip();
            let (vector_ms, vector_faults) = median(vector);
            let (ranges_ms, ranges_faults) = median(ranges);
            println!(
                "{n:>9} {rows:>6} {vector_ms:>10.2} {vector_faults:>7} {ranges_ms:>10.2} \
                 {ranges_faults:>7} {:>7.2}x",
                vector_ms / ranges_ms
            );
        }
    }
}
