//! `repro tune`: bottleneck-guided auto-tuning of both engines across all
//! six workloads.
//!
//! Each workload/engine cell first measures the out-of-the-box
//! [`EngineConfig::default`], then runs the guided hill-climb (plus a small
//! seeded random sweep for coverage) over the engine-filtered knob space.
//! The winner is the best *verified* full-input trial, so the reported
//! speedup is tuned-vs-default throughput and can never lose to the default
//! it includes. Every trial is checked against the workload's sequential
//! oracle — an unverified trial fails the whole run.

use flowmark_core::config::{EngineConfig, Framework, PartitionerChoice};
use flowmark_tune::search::best_of;
use flowmark_tune::{Budget, ParamSpace, Strategy, Trial, Tuner, Workbench};
use flowmark_workloads::cell::Sizes;
use flowmark_workloads::Workload;
use serde::{Deserialize, Serialize};

/// Tuning-run knobs, settable from the `repro tune` CLI.
#[derive(Debug, Clone, Copy)]
pub struct TuneOptions {
    /// Seed for the random sweep.
    pub seed: u64,
    /// True for the small search space and scale.
    pub smoke: bool,
    /// Trial budget of the guided climb, per cell.
    pub guided_trials: usize,
    /// Seeded random draws per cell, on top of the climb.
    pub random_samples: usize,
}

impl TuneOptions {
    /// The smoke drill: small space, short climb.
    pub fn smoke(seed: u64) -> Self {
        Self {
            seed,
            smoke: true,
            guided_trials: 6,
            random_samples: 2,
        }
    }

    /// The full CLI run: denser space, longer climb, wider sweep.
    pub fn full(seed: u64) -> Self {
        Self {
            seed,
            smoke: false,
            guided_trials: 10,
            random_samples: 6,
        }
    }

    /// Input sizes: small enough at smoke scale that a dozen trials per
    /// cell stay fast.
    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes {
                lines: 1_500,
                ts_records: 1_500,
                points: 2_000,
                edges: 1_200,
                rounds: 3,
            }
        } else {
            Sizes {
                lines: 20_000,
                ts_records: 20_000,
                points: 10_000,
                edges: 6_000,
                rounds: 6,
            }
        }
    }
}

/// One tuned workload/engine cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneCell {
    /// Workload id.
    pub workload: String,
    /// Engine id: `spark` (staged) or `flink` (pipelined).
    pub engine: String,
    /// The winner: best verified full-input trial (default included).
    pub best: Trial,
    /// Throughput of the default config, records/s.
    pub default_throughput: f64,
    /// Wall-clock seconds of the default config.
    pub default_seconds: f64,
    /// `best.throughput / default_throughput` — ≥ 1.0 by construction.
    pub speedup: f64,
    /// Configs actually executed (cache misses).
    pub executions: u64,
    /// Trials replayed from the run cache.
    pub cache_hits: u64,
    /// True when every trial matched the sequential oracle.
    pub all_verified: bool,
    /// Full trajectory, evaluation order: default first, then the climb,
    /// then the random sweep.
    pub trials: Vec<Trial>,
}

/// A full tuning run: all twelve cells plus the knobs that produced them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneReport {
    /// Seed of the random sweeps.
    pub seed: u64,
    /// True when run at smoke scale.
    pub smoke: bool,
    /// All cells, workload-major, spark before flink.
    pub cells: Vec<TuneCell>,
}

/// Tunes one workload on one engine.
pub fn run_tune_cell(
    workload: Workload,
    engine: Framework,
    sizes: Sizes,
    opts: &TuneOptions,
) -> TuneCell {
    let space = if opts.smoke {
        ParamSpace::smoke()
    } else {
        ParamSpace::full()
    }
    .for_engine(engine);
    let mut bench = Workbench::new(workload, engine, sizes);
    let mut tuner = Tuner::new();

    let default_trial = tuner.evaluate(&EngineConfig::default(), Budget::FULL, &mut bench);
    let mut trials = vec![default_trial.clone()];
    let guided = tuner.run(
        &Strategy::Guided {
            max_trials: opts.guided_trials,
        },
        &space,
        &mut bench,
    );
    trials.extend(guided.trials);
    if opts.random_samples > 0 {
        let random = tuner.run(
            &Strategy::Random {
                samples: opts.random_samples,
                seed: opts.seed,
            },
            &space,
            &mut bench,
        );
        trials.extend(random.trials);
    }

    let best = best_of(&trials).expect("the default trial always exists");
    TuneCell {
        workload: workload.name().into(),
        engine: engine.name().to_lowercase(),
        speedup: best.throughput / default_trial.throughput.max(1e-12),
        default_throughput: default_trial.throughput,
        default_seconds: default_trial.seconds,
        executions: tuner.executions(),
        cache_hits: tuner.cache_hits(),
        all_verified: trials.iter().all(|t| t.verified),
        best,
        trials,
    }
}

/// Tunes all six workloads on both engines.
pub fn run_tune(opts: &TuneOptions) -> TuneReport {
    let mut cells = Vec::new();
    for workload in Workload::ALL {
        for engine in Framework::BOTH {
            cells.push(run_tune_cell(workload, engine, opts.sizes(), opts));
        }
    }
    TuneReport {
        seed: opts.seed,
        smoke: opts.smoke,
        cells,
    }
}

fn knobs(c: &EngineConfig) -> String {
    format!(
        "p={} net={} sort={} spill={} combine={} part={}",
        c.parallelism,
        c.network_buffer_records,
        c.combine_buffer_records,
        c.spill_run_budget,
        if c.combine_enabled { "on" } else { "off" },
        match c.partitioner {
            PartitionerChoice::Hash => "hash",
            PartitionerChoice::Range => "range",
        }
    )
}

/// Renders the run as a human-readable table plus, per cell, the verdict
/// trajectory the climb followed.
pub fn render(report: &TuneReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "auto-tune — seed {}, {} scale\n",
        report.seed,
        if report.smoke { "smoke" } else { "full" }
    ));
    out.push_str(&format!(
        "{:<10} {:<6} {:>6} {:>5} {:>5} {:>9} {:>9} {:>8}  {}\n",
        "workload", "engine", "trials", "exec", "hits", "default-s", "tuned-s", "speedup", "best config"
    ));
    for c in &report.cells {
        out.push_str(&format!(
            "{:<10} {:<6} {:>6} {:>5} {:>5} {:>9.3} {:>9.3} {:>7.2}x  {}{}\n",
            c.workload,
            c.engine,
            c.trials.len(),
            c.executions,
            c.cache_hits,
            c.default_seconds,
            c.best.seconds,
            c.speedup,
            knobs(&c.best.config),
            if c.all_verified { "" } else { "  [DIVERGED]" },
        ));
    }
    out.push_str("\nclimb trajectories (verdict after each trial):\n");
    for c in &report.cells {
        let path: Vec<String> = c
            .trials
            .iter()
            .map(|t| {
                format!(
                    "{}{}",
                    t.bottleneck.name(),
                    if t.cached { "*" } else { "" }
                )
            })
            .collect();
        out.push_str(&format!(
            "  {:<10} {:<6} {}\n",
            c.workload,
            c.engine,
            path.join(" -> ")
        ));
    }
    out.push_str("  (* = replayed from the run cache, not re-executed)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Sizes {
        Sizes {
            lines: 300,
            ts_records: 300,
            points: 300,
            edges: 300,
            rounds: 2,
        }
    }

    #[test]
    fn cell_includes_the_default_so_speedup_is_at_least_one() {
        let opts = TuneOptions {
            seed: 1,
            smoke: true,
            guided_trials: 3,
            random_samples: 1,
        };
        let cell = run_tune_cell(Workload::Grep, Framework::Spark, tiny(), &opts);
        assert!(cell.all_verified);
        assert!(cell.speedup >= 1.0, "speedup {} lost to the default", cell.speedup);
        assert!(cell.best.verified && cell.best.budget_fraction >= 1.0);
        assert!(!cell.trials.is_empty());
    }

    #[test]
    fn report_round_trips_through_json_and_renders() {
        let opts = TuneOptions {
            seed: 1,
            smoke: true,
            guided_trials: 2,
            random_samples: 0,
        };
        let cell = run_tune_cell(Workload::WordCount, Framework::Flink, tiny(), &opts);
        let report = TuneReport {
            seed: 1,
            smoke: true,
            cells: vec![cell],
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: TuneReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cells.len(), 1);
        assert_eq!(back.cells[0].workload, "wordcount");
        let text = render(&back);
        assert!(text.contains("wordcount"));
        assert!(text.contains("speedup"));
    }
}
