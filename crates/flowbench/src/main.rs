//! `flowbench run` / `flowbench measure` / `flowbench repeat`.
//!
//! `run` is the benchmark's command. An end-to-end run splits its seconds
//! over [`PROCESSES`] fresh `measure` processes and reports each metric's
//! median across them: on the reference box two processes of the same
//! binary on the same input differ by 10-15 % (whatever a process keeps for
//! life — heap layout, allocator thresholds, page placement) while one
//! process repeats itself within 2-4 %, so more time in one process does
//! not steady a number and more processes do. A traced run is one process.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use flowbench::spec::{Scale, END_TO_END, WORKLOADS};
use flowbench::stats::median;
use flowbench::{RunOpts, RunReport, Tally};
use serde::Value;

const USAGE: &str = "usage:
  flowbench run --workload <name> [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--trace-out <path>]
  flowbench run --all [--seed <u64>] [--seconds <n>] [--trace [0|1]]
  flowbench measure --workload <name> [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--trace-out <path>]
  flowbench repeat [--seed <u64>] [--seconds <n>]
workloads: wordcount grep terasort kmeans graph nexmark serve-mix";

/// Default measurement seconds; `BENCHMARK.json` passes its own.
const DEFAULT_SECONDS: f64 = 8.0;
/// Fresh processes an end-to-end run is split over.
const PROCESSES: usize = 4;

#[derive(Clone)]
struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: PathBuf::from("trace.json"),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value("a name")?),
            "--all" => out.all = true,
            "--seed" => {
                out.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace-out" => out.trace_out = PathBuf::from(value("a path")?),
            // Bare `--trace` switches tracing on; `--trace 0|1` sets it.
            "--trace" => {
                out.trace = it.peek().is_none_or(|v| v.as_str() != "0");
                if it.peek().is_some_and(|v| matches!(v.as_str(), "0" | "1")) {
                    it.next();
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// Prints notes, a metric table and, last, the result object.
fn print_result(workload: &str, notes: &[String], result: &Value) {
    println!("== {workload} ==");
    for note in notes {
        println!("  {note}");
    }
    for (name, entry) in result
        .get_field("metrics")
        .and_then(Value::as_object)
        .unwrap_or(&[])
    {
        if let (Some(v), Some(Value::Str(unit))) =
            (number(entry.get_field("value")), entry.get_field("unit"))
        {
            // Timer-floor readings are ~1e-8: keep their digits visible.
            if v != 0.0 && v.abs() < 1e-3 {
                println!("  {name:<34} {v:>18.6e} {unit}");
            } else {
                println!("  {name:<34} {v:>18.6} {unit}");
            }
        }
    }
    println!(
        "{}",
        serde_json::to_string(result).expect("finite metrics serialize")
    );
}

fn exit_code(result: &Value) -> ExitCode {
    if result.get_field("correct") == Some(&Value::Bool(true)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Measures one workload in this process.
fn measure(args: &Args, workload: &str) -> Result<ExitCode, String> {
    let opts = RunOpts {
        workload: workload.to_owned(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::FULL,
    };
    let report: RunReport = flowbench::run(&opts)?;
    if args.trace {
        let doc = serde_json::to_string(&flowbench::trace::spans_json(&report.spans))
            .expect("finite span times serialize");
        std::fs::write(&args.trace_out, doc)
            .map_err(|e| format!("{}: {e}", args.trace_out.display()))?;
    }
    let result = report.result_json();
    print_result(workload, &report.notes, &result);
    Ok(exit_code(&result))
}

/// Runs this binary with `argv`, waits for it, and returns the result
/// object on its last line. With `echo` the child's output is passed
/// through.
fn child(argv: &[String], echo: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(argv)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if echo {
        print!("{stdout}");
    }
    let what = argv.join(" ");
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("`{what}` printed nothing (exit {})", output.status))?;
    serde_json::from_str(last).map_err(|e| format!("`{what}`: {e}"))
}

fn child_argv(
    cmd: &str,
    args: &Args,
    workload: &str,
    seconds: f64,
    trace_out: &str,
) -> Vec<String> {
    [
        cmd,
        "--workload",
        workload,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .chain([
        "--trace".into(),
        u8::from(args.trace).to_string(),
        "--trace-out".into(),
        trace_out.into(),
    ])
    .collect()
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Float(f) => Some(*f),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    number(
        result
            .get_field("metrics")?
            .get_field(name)?
            .get_field("value"),
    )
}

/// The benchmark's command for one workload: a traced run measures in this
/// process; an end-to-end run splits over fresh processes and reports
/// per-metric medians.
fn run(args: &Args, workload: &str) -> Result<ExitCode, String> {
    if args.trace {
        return measure(args, workload);
    }
    let argv = child_argv(
        "measure",
        args,
        workload,
        args.seconds / PROCESSES as f64,
        "trace.json",
    );
    let parts: Vec<Value> = (0..PROCESSES)
        .map(|_| child(&argv, false))
        .collect::<Result<_, _>>()?;
    let mut tally = Tally::default();
    for part in &parts {
        match (
            number(part.get_field("attempted")),
            number(part.get_field("failed")),
        ) {
            (Some(a), Some(f)) => tally.merge(Tally {
                attempted: a as u64,
                failed: f as u64,
            }),
            _ => {
                return Err(format!(
                    "{workload}: malformed result from a measuring process"
                ))
            }
        }
    }
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let values: Vec<f64> = parts.iter().filter_map(|p| metric(p, m.name)).collect();
            if values.len() != parts.len() {
                return Err(format!(
                    "{workload}: a measuring process did not report {}",
                    m.name
                ));
            }
            let fields = vec![
                ("value".to_owned(), Value::Float(median(&values))),
                ("unit".to_owned(), Value::Str(m.unit.to_owned())),
            ];
            Ok((m.name.to_owned(), Value::Object(fields)))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(tally.failed == 0)),
        ("attempted".into(), Value::UInt(tally.attempted)),
        ("failed".into(), Value::UInt(tally.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    let notes = [format!(
        "median of {PROCESSES} processes x {:.2} s, parallelism {}, seed {}",
        args.seconds / PROCESSES as f64,
        flowbench::parallelism(),
        args.seed
    )];
    print_result(workload, &notes, &result);
    Ok(exit_code(&result))
}

/// Runs the seven workloads in turn, each in a fresh process.
fn run_all(args: &Args) -> Result<Vec<(&'static str, Value)>, String> {
    WORKLOADS
        .iter()
        .map(|w| {
            let argv = child_argv("run", args, w, args.seconds, &format!("trace.{w}.json"));
            Ok((*w, child(&argv, true)?))
        })
        .collect()
}

/// The bounds and directions `BENCHMARK.json` declares, as
/// `(name, higher_is_better, bound)`.
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Array(entries)) = doc.get_field("end_to_end") else {
        return Err("BENCHMARK.json: no end_to_end list".into());
    };
    entries
        .iter()
        .map(|e| {
            match (
                e.get_field("name"),
                e.get_field("better"),
                number(e.get_field("bound")),
            ) {
                (Some(Value::Str(n)), Some(Value::Str(b)), Some(bound)) => {
                    Ok((n.clone(), b == "higher", bound))
                }
                _ => Err("BENCHMARK.json: malformed end_to_end entry".to_owned()),
            }
        })
        .collect()
}

/// Runs the full set twice and compares every end-to-end metric ×
/// workload against its bound, and every exact count for equality.
fn repeat(args: &Args) -> Result<ExitCode, String> {
    /// Counts that must repeat exactly for a given seed, with the workloads
    /// exempt from each. `graph` is exempt from the shuffle counts: the
    /// staged PageRank and Connected Components build their adjacency in a
    /// `RandomState` map, so which vertices share a partition — and with it
    /// the post-combine record count — differs from process to process.
    const EXACT: [(&str, &[&str]); 4] = [
        ("shuffle.records", &["graph"]),
        ("shuffle.bytes", &["graph"]),
        ("iterate.supersteps", &[]),
        ("streaming.checkpoints", &[]),
    ];
    let bounds = bounds()?;
    let untraced = Args {
        trace: false,
        ..args.clone()
    };
    let traced = Args {
        trace: true,
        ..args.clone()
    };
    let (first, second) = (run_all(&untraced)?, run_all(&untraced)?);
    let (first_t, second_t) = (run_all(&traced)?, run_all(&traced)?);
    let mut breaches = 0;
    println!(
        "{:<10} {:<22} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        for m in END_TO_END {
            let (Some(x), Some(y)) = (metric(a, m.name), metric(b, m.name)) else {
                return Err(format!("{workload}: {} missing", m.name));
            };
            let (_, higher, bound) = bounds
                .iter()
                .find(|(n, ..)| n == m.name)
                .ok_or(format!("BENCHMARK.json does not declare {}", m.name))?;
            // How much worse the second set reads, as a share of the first.
            let worse = if *higher { (x - y) / x } else { (y - x) / x };
            let breach = worse > *bound;
            breaches += u32::from(breach);
            println!(
                "{workload:<10} {:<22} {x:>14.4} {y:>14.4} {:>7.1}% {:>5.0}%{}",
                m.name,
                worse * 100.0,
                bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    for ((workload, a), (_, b)) in first_t.iter().zip(&second_t) {
        for (name, exempt) in EXACT {
            let (x, y) = (metric(a, name), metric(b, name));
            if x != y && !exempt.contains(workload) {
                breaches += 1;
                println!("{workload:<10} {name:<22} differs between sets: {x:?} vs {y:?}  BREACH");
            }
        }
    }
    println!("{breaches} breach(es)");
    Ok(if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((cmd, rest)) if cmd == "run" || cmd == "measure" => {
            parse(rest).and_then(|args| match (&args.workload, args.all, cmd.as_str()) {
                (Some(w), false, "measure") => measure(&args, w),
                (Some(w), false, _) => run(&args, w),
                (None, true, "run") => run_all(&args).map(|results| {
                    let all_correct = results
                        .iter()
                        .all(|(_, r)| r.get_field("correct") == Some(&Value::Bool(true)));
                    if all_correct {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(1)
                    }
                }),
                _ => Err("give --workload <name>, or --all with `run`".into()),
            })
        }
        Some((cmd, rest)) if cmd == "repeat" => parse(rest).and_then(|args| repeat(&args)),
        _ => Err(USAGE.into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("flowbench: {e}");
        ExitCode::from(2)
    })
}
