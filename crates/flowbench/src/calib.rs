//! Ambient-noise sentinel.
//!
//! A fixed amount of integer work that calls no `flowmark-*` code, so no
//! change to the program can speed it up: if the same loop takes longer
//! after a measurement window than before it, the machine — not the
//! program — changed during the window.
//!
//! The loop itself is single-threaded, but a reading runs one copy on each
//! of the `P` threads the jobs use and takes the slowest. Measured on the
//! 2-vCPU reference box with 6 M-iteration chunks: a lone thread reads
//! bimodally (11.7 ms or 15.0 ms per chunk, flipping from chunk to chunk
//! with no change in job times), and a noisy spell that slows 2-thread jobs
//! by 20-40 % moves a lone thread by only ~10 %. With every core busy the
//! reading is unimodal (deciles 14.1-15.5 ms) and a stolen core slows it as
//! much as it slows a job.

use std::hint::black_box;
use std::time::Instant;

/// Rounds per calibration; the median round is the reading.
const ROUNDS: usize = 7;
/// Untimed rounds before them (≈ 90 ms). Two things settle meanwhile. A
/// job's threads are still tearing down for a moment after it returns
/// (measured on `nexmark`: a reading taken straight after a
/// continuous-runtime job is ~50 % slow, one taken 100 ms later is not);
/// that is the program, not the machine. And the box clocks higher after
/// any idle or single-threaded stretch (readings ~20 % fast after set-up, or
/// after sleeping instead of spinning here), so the pause has to be busy to
/// bring the clock to where the multi-threaded window holds it.
const WARM_UP_ROUNDS: usize = 12;

/// Relative drift above which a window is measured again.
pub const DRIFT_LIMIT: f64 = 0.08;
/// How often a window may be measured again.
pub const MAX_RETRIES: u32 = 2;

fn chunk(iters: u64) -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..iters {
        // xorshift-multiply: a serial dependency chain the compiler cannot
        // collapse, touching no memory.
        x ^= x >> 13;
        x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93).wrapping_add(i);
    }
    black_box(x);
    start.elapsed().as_secs_f64()
}

/// Seconds a chunk of `iters` loop iterations takes right now: `threads`
/// copies run at once, the slowest is the round's reading, and the median
/// round counts.
pub fn calibrate(threads: usize, iters: u64) -> f64 {
    let rounds: Vec<f64> = (0..WARM_UP_ROUNDS + ROUNDS)
        .map(|_| {
            std::thread::scope(|s| {
                let copies: Vec<_> = (0..threads.max(1))
                    .map(|_| s.spawn(move || chunk(iters)))
                    .collect();
                copies
                    .into_iter()
                    .map(|c| c.join().expect("the calibration loop cannot panic"))
                    .fold(0.0, f64::max)
            })
        })
        .collect();
    crate::stats::median(&rounds[WARM_UP_ROUNDS..])
}

/// Relative change between two calibration readings.
pub fn drift(before: f64, after: f64) -> f64 {
    (after - before).abs() / before.min(after).max(f64::MIN_POSITIVE)
}

/// Runs `measure` between two calibration readings on `threads` threads
/// with chunks of `iters` iterations. If the readings differ
/// by more than [`DRIFT_LIMIT`] the machine changed under the measurement
/// and it is taken again, at most [`MAX_RETRIES`] times. Returns the last
/// measurement, its drift and the number of retries.
pub fn steady<T>(threads: usize, iters: u64, mut measure: impl FnMut() -> T) -> (T, f64, u32) {
    let mut retries = 0;
    loop {
        let before = calibrate(threads, iters);
        let out = measure();
        let d = drift(before, calibrate(threads, iters));
        if d <= DRIFT_LIMIT || retries == MAX_RETRIES {
            return (out, d, retries);
        }
        retries += 1;
    }
}
