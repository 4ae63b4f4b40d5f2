//! `repro` — the command-line reproduction driver.
//!
//! ```text
//! repro list              # list experiment ids
//! repro fig1              # run one figure and print it
//! repro table7            # run Table VII
//! repro calibration       # paper-vs-simulated calibration table
//! repro all               # regenerate EXPERIMENTS.md content to stdout
//! repro chaos             # fault-injection drill: kill + straggle every workload
//! repro stream --smoke    # event-time streaming drill: Nexmark q3/q6, clean and armed
//! repro tune --smoke      # bottleneck-guided auto-tune of both engines
//! repro soak --smoke      # chaos-soak the supervised job service
//! ```
//!
//! Every drill prints its report, writes its JSON only when given `--out
//! FILE`, and exits 1 when one of its invariants is violated. Every other
//! fallible path (bad flags, unwritable `--out`, invalid experiment
//! configs) surfaces a [`HarnessError`] and a non-zero exit, never a panic.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use flowmark_core::report::{render_correlation, render_figure, render_series};
use flowmark_core::telemetry::ResourceKind;
use flowmark_harness::chaos::{self, ChaosConfig};
use flowmark_harness::drill::Scale;
use flowmark_harness::experiments::{self, ResourceFigure};
use flowmark_harness::mix::{self, MixScale};
use flowmark_harness::soak::{self, SoakConfig, SoakScale};
use flowmark_harness::tune::{self, TuneOptions};
use flowmark_harness::{calibration_report, check_shape, paper, report, stream, HarnessError};
use flowmark_sim::Calibration;

fn print_resource_figure(rf: &ResourceFigure) {
    println!("## {} — {}\n", rf.id, rf.title);
    for (name, result, rep) in [
        ("Flink", &rf.flink, &rf.flink_report),
        ("Spark", &rf.spark, &rf.spark_report),
    ] {
        println!(
            "{name}: total {:.0}s, pipelining degree {:.2}",
            result.seconds, rep.pipelining_degree
        );
        print!("{}", render_correlation(rep));
        for kind in ResourceKind::ALL {
            let series = result.telemetry.mean_channel(kind);
            let max = if kind.is_percentage() {
                100.0
            } else {
                series.summary().max.max(1.0)
            };
            print!("{}", render_series(kind.label(), &series, max, 72));
        }
        println!();
    }
}

/// Looks up `--name value` in the argument rest.
fn flag_value(rest: &[String], name: &str) -> Option<String> {
    rest.iter()
        .position(|a| a == name)
        .and_then(|i| rest.get(i + 1))
        .cloned()
}

/// Parses `--name value`, surfacing a typed error on garbage.
fn parsed_flag<T: std::str::FromStr>(
    rest: &[String],
    name: &str,
) -> Result<Option<T>, HarnessError> {
    match flag_value(rest, name) {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|_| HarnessError::BadFlag {
            flag: name.into(),
            value: v,
        }),
    }
}

/// Writes a file with path context on failure.
fn write_file(path: &str, contents: String) -> Result<(), HarnessError> {
    std::fs::write(path, contents).map_err(|e| HarnessError::io(path, e))
}

/// Every drill's exit: prints the rendered report, writes its JSON to
/// `--out` when given, prints each violation as `{drill}: {v}` on stderr
/// and exits 1 if there were any.
fn finish<T: serde::Serialize>(
    drill: &str,
    rest: &[String],
    text: &str,
    report: &T,
    violations: &[String],
) -> Result<(), HarnessError> {
    print!("{text}");
    if let Some(path) = flag_value(rest, "--out") {
        write_file(&path, serde_json::to_string_pretty(report)? + "\n")?;
        println!("wrote {path}");
    }
    for v in violations {
        eprintln!("{drill}: {v}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("repro: {e}");
        std::process::exit(e.exit_code());
    }
}

fn run() -> Result<(), HarnessError> {
    let cal = Calibration::default();
    let arg = std::env::args().nth(1).unwrap_or_else(|| "list".into());
    let rest: Vec<String> = std::env::args().skip(2).collect();
    let has = |name: &str| rest.iter().any(|a| a == name);
    match arg.as_str() {
        "list" => {
            let ids: Vec<&str> = experiments::TIME_FIGURES.iter().map(|f| f.id).collect();
            println!("time figures : {}", ids.join(" "));
            println!("resources    : fig3 fig6 fig9 fig10 fig16 fig17");
            println!("tables       : table1 table7");
            println!("ablations    : abl-delta abl-serde abl-par abl-part abl-mem");
            println!("meta         : calibration verify all export <figN>");
            println!("robustness   : chaos [--seed N] [--fail-prob P] [--straggler-prob P] [--corruption] [--streaming] [--tiny] [--out FILE]");
            println!("             : soak [--smoke] [--seed N] [--out FILE]");
            println!("             : soak --mix-concurrent N [--smoke] [--seed S] [--out FILE]");
            println!("streaming    : stream [--smoke] [--seed N] [--out FILE]");
            println!("tuning       : tune [--smoke] [--seed N] [--out FILE]");
        }
        "soak" => {
            let seed: u64 = parsed_flag(&rest, "--seed")?.unwrap_or(1);
            let smoke = has("--smoke");
            if let Some(jobs) = parsed_flag::<usize>(&rest, "--mix-concurrent")? {
                let scale = if smoke {
                    MixScale::smoke()
                } else {
                    MixScale::full(jobs)
                };
                let report = mix::run_mix(seed, scale);
                // The throughput gate is an artifact-scale claim; smoke
                // runs keep the structural gates only.
                let bad = report.violations(if smoke { 0.0 } else { 1.3 });
                let text = mix::render(&report);
                return finish("mix-concurrent", &rest, &text, &report, &bad);
            }
            let scale = if smoke {
                SoakScale::smoke()
            } else {
                SoakScale::full()
            };
            let report = soak::run_soak(SoakConfig::new(seed), scale);
            let text = soak::render(&report);
            finish("soak", &rest, &text, &report, &report.violations())?;
        }
        "tune" => {
            let seed: u64 = parsed_flag(&rest, "--seed")?.unwrap_or(1);
            let opts = if has("--smoke") {
                TuneOptions::smoke(seed)
            } else {
                TuneOptions::full(seed)
            };
            let report = tune::run_tune(&opts);
            let bad: Vec<String> = report
                .cells
                .iter()
                .filter(|c| !c.all_verified)
                .map(|c| format!("{}-{}: a trial diverged from the oracle", c.workload, c.engine))
                .collect();
            finish("tune", &rest, &tune::render(&report), &report, &bad)?;
        }
        "stream" => {
            let seed: u64 = parsed_flag(&rest, "--seed")?.unwrap_or(1);
            let scale = if has("--smoke") {
                Scale::small()
            } else {
                Scale::full()
            };
            let (report, bad) = stream::run_stream(seed, &scale, true);
            let text = stream::render(&scale, &report);
            finish("stream", &rest, &text, &report, &bad)?;
        }
        "chaos" => {
            let seed: u64 = parsed_flag(&rest, "--seed")?.unwrap_or(1);
            let scale = if has("--tiny") {
                Scale::small()
            } else {
                Scale::full()
            };
            // The streaming drill is its own grid: q3/q6 on both
            // checkpointed runtimes, every cell armed with the corruption
            // preset and held to the full detect-and-recover chain.
            if has("--streaming") {
                let (report, bad) = stream::run_stream(seed, &scale, false);
                let text = stream::render(&scale, &report);
                return finish("chaos", &rest, &text, &report, &bad);
            }
            let mut config = ChaosConfig::new(seed);
            if let Some(p) = parsed_flag(&rest, "--fail-prob")? {
                config.task_failure_prob = p;
            }
            if let Some(p) = parsed_flag(&rest, "--straggler-prob")? {
                config.straggler_prob = p;
            }
            // Corruption mode layers deterministic bit rot — in-flight batch
            // damage plus a rotten checkpoint snapshot — on top of the
            // kill/straggler plan for every batch-path cell.
            config.corruption = has("--corruption");
            let report = chaos::run_chaos(config, &scale);
            let bad = chaos::integrity_violations(&report.rows);
            let text = chaos::render(&config, &scale, &report);
            finish("chaos", &rest, &text, &report, &bad)?;
        }
        "table1" => {
            use flowmark_core::config::Framework;
            use flowmark_workloads::Workload;
            println!("Table I — operators used by each workload (F/S annotations):");
            for w in Workload::ALL {
                for fw in Framework::BOTH {
                    let ops: Vec<String> = w
                        .operator_table(fw)
                        .iter()
                        .map(|o| o.to_string())
                        .collect();
                    println!("  {:<3} {:<5} {}", w.abbrev(), fw.name(), ops.join(", "));
                }
            }
        }
        "export" => {
            use flowmark_core::export::{figure_to_csv, figure_to_json};
            let which = std::env::args().nth(2).unwrap_or_else(|| "fig1".into());
            let Some(tf) = experiments::find_time_figure(&which) else {
                return Err(HarnessError::Usage(format!(
                    "cannot export '{which}' (time figures only)"
                )));
            };
            let fig = (tf.run)(&cal)?;
            std::fs::create_dir_all("artifacts").map_err(|e| HarnessError::io("artifacts", e))?;
            let json_path = format!("artifacts/{which}.json");
            let csv_path = format!("artifacts/{which}.csv");
            write_file(&json_path, figure_to_json(&fig))?;
            write_file(&csv_path, figure_to_csv(&fig))?;
            println!("wrote {json_path} and {csv_path}");
        }
        "fig3" => print_resource_figure(&experiments::fig3(&cal)?),
        "fig6" => print_resource_figure(&experiments::fig6(&cal)?),
        "fig9" => print_resource_figure(&experiments::fig9(&cal)?),
        "fig10" => print_resource_figure(&experiments::fig10(&cal)?),
        "fig16" => print_resource_figure(&experiments::fig16(&cal)?),
        "fig17" => print_resource_figure(&experiments::fig17(&cal)?),
        "table7" => {
            for r in experiments::table7(&cal)? {
                println!(
                    "{:>3} nodes | Flink PR {}/{} | Spark PR {}/{} | Flink CC {}/{} | Spark CC {}/{}",
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
        }
        "abl-delta" => {
            let (bulk, delta) = experiments::ablation_delta(&cal)?;
            println!("CC Medium 27n: bulk {bulk:.0}s, delta {delta:.0}s ({:.2}x)", bulk / delta);
        }
        "abl-serde" => {
            let (java, kryo) = experiments::ablation_serializer(&cal)?;
            println!("Spark WC 16n: Java {java:.0}s, Kryo {kryo:.0}s");
        }
        "abl-par" => {
            let (tuned, reduced) = experiments::ablation_parallelism(&cal)?;
            println!(
                "Spark WC 8n: tuned {tuned:.0}s, 2xcores {reduced:.0}s ({:+.1}%)",
                (reduced - tuned) / tuned * 100.0
            );
        }
        "abl-part" => {
            for (ep, t) in experiments::ablation_partitions(&cal)? {
                println!("PR Medium 24n, spark.edge.partition = {ep:>5}: {t:.0}s");
            }
        }
        "abl-mem" => {
            let (s, f) = experiments::ablation_terasort_memory(&cal)?;
            println!("TeraSort 27n x 75GB: Spark {s:.0}s, Flink {f:.0}s");
        }
        "verify" => {
            // CI-style check: every time figure's winner must match the
            // paper's expectation; exits non-zero otherwise.
            let mut failures = 0;
            for tf in &experiments::TIME_FIGURES {
                let fig = (tf.run)(&cal)?;
                let c = check_shape(&fig, paper::expected_winner(tf.expect_id));
                println!(
                    "{:<12} {} — {}",
                    fig.id,
                    if c.matches_paper { "OK " } else { "FAIL" },
                    c.verdict
                );
                if !c.matches_paper {
                    failures += 1;
                }
            }
            // Table VII failure pattern.
            let rows = experiments::table7(&cal)?;
            let t7_ok = rows.iter().all(|r| match r.nodes {
                27 | 44 => {
                    r.flink_pr.0.is_failure()
                        && r.spark_pr.1.is_failure()
                        && !r.spark_cc.1.is_failure()
                }
                97 => {
                    !r.flink_pr.1.is_failure()
                        && !r.spark_pr.1.is_failure()
                        && !r.flink_cc.1.is_failure()
                }
                _ => true,
            });
            println!("table7       {} — failure pattern", if t7_ok { "OK " } else { "FAIL" });
            if !t7_ok {
                failures += 1;
            }
            if failures > 0 {
                eprintln!("{failures} shape check(s) failed");
                std::process::exit(1);
            }
            println!("all shapes match the paper");
        }
        "calibration" => print!("{}", calibration_report(&cal)?),
        "all" => print!("{}", report::experiments_markdown(&cal)?),
        other => {
            let Some(tf) = experiments::find_time_figure(other) else {
                return Err(HarnessError::Usage(format!(
                    "unknown experiment '{other}'; try `repro list`"
                )));
            };
            let fig = (tf.run)(&cal)?;
            print!("{}", render_figure(&fig));
            let check = check_shape(&fig, paper::expected_winner(tf.expect_id));
            println!(
                "shape: {} — {}",
                check.verdict,
                if check.matches_paper {
                    "matches the paper"
                } else {
                    "DOES NOT match the paper"
                }
            );
        }
    }
    Ok(())
}
