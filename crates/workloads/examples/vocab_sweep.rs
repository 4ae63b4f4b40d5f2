//! Word Count's map side across vocabulary size and skew, on one thread:
//! nanoseconds per word for the word-dictionary kernel
//! (`kernels::tokenize_count` + `WordDict::route`) against the
//! `FxHashMap<String, u64>` combiner it replaced (`split_whitespace` into the
//! map, `StrU64Batch::from_pairs`, `partition_by` on the FxHash of each
//! word). Both read the same lines in place and route to the same reducers.
//!
//! ```text
//! cargo run --release --offline -p flowmark-workloads --example vocab_sweep [lines]
//! ```
//!
//! Each cell generates `lines` (default 100 000) Zipf lines of 12 words and
//! prints the best of three runs per side.

use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

use flowmark_columnar::{kernels, StrU64Batch, WordDict};
use flowmark_datagen::text::{TextGen, TextGenConfig};
use flowmark_engine::hash::{fx_map_with_capacity, FxHashMap, FxHasher64};

/// Reducers the routed batches are cut for.
const PARTS: usize = 4;
const VOCABULARIES: [usize; 4] = [2_000, 20_000, 200_000, 2_000_000];
const EXPONENTS: [f64; 3] = [0.8, 1.05, 1.4];

fn dict_path(lines: &[String]) -> (usize, Vec<StrU64Batch>) {
    let mut dict = WordDict::new();
    kernels::tokenize_count(lines.iter().map(String::as_str), &mut dict);
    (dict.len(), dict.route(PARTS))
}

fn fxmap_path(lines: &[String]) -> (usize, Vec<StrU64Batch>) {
    let mut counts: FxHashMap<String, u64> = fx_map_with_capacity(1024);
    for w in lines.iter().flat_map(|l| l.split_whitespace()) {
        match counts.get_mut(w) {
            Some(c) => *c += 1,
            None => {
                counts.insert(w.to_owned(), 1);
            }
        }
    }
    let distinct = counts.len();
    let routed = StrU64Batch::from_pairs(counts).partition_by(PARTS, |w| {
        let mut h = FxHasher64::default();
        w.hash(&mut h);
        (h.finish() as usize) % PARTS
    });
    (distinct, routed)
}

/// Best-of-three seconds of `f` over `lines`, and its distinct-word count.
fn best_of_three(lines: &[String], f: fn(&[String]) -> (usize, Vec<StrU64Batch>)) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut distinct = 0;
    for _ in 0..3 {
        let start = Instant::now();
        let (d, routed) = black_box(f(lines));
        best = best.min(start.elapsed().as_secs_f64());
        distinct = d;
        drop(routed);
    }
    (best, distinct)
}

fn main() {
    let lines_per_cell: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("lines must be a positive integer"))
        .unwrap_or(100_000);
    println!(
        "{:>10} {:>6} {:>10} {:>12} {:>12} {:>7}",
        "vocabulary", "zipf", "distinct", "dict ns/w", "fxmap ns/w", "speedup"
    );
    for vocabulary in VOCABULARIES {
        for exponent in EXPONENTS {
            let config = TextGenConfig {
                vocabulary,
                exponent,
                needle_selectivity: 0.0,
                ..TextGenConfig::default()
            };
            let words_per_line = config.words_per_line;
            let lines = TextGen::new(config, 211).lines(lines_per_cell);
            let words = (lines.len() * words_per_line) as f64;
            let (dict_s, distinct) = best_of_three(&lines, dict_path);
            let (fxmap_s, fx_distinct) = best_of_three(&lines, fxmap_path);
            assert_eq!(
                distinct, fx_distinct,
                "the two paths counted different words"
            );
            println!(
                "{vocabulary:>10} {exponent:>6.2} {distinct:>10} {:>12.1} {:>12.1} {:>6.2}x",
                dict_s * 1e9 / words,
                fxmap_s * 1e9 / words,
                fxmap_s / dict_s
            );
        }
    }
}
