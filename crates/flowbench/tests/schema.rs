//! Schema guard: `BENCHMARK.json` and the benchmark's own tables declare
//! the same workloads and metrics, every declared metric is emitted with
//! its unit by every workload, and the traced run's spans nest.
//!
//! Runs all seven workloads at `Scale::TINY`; the numbers mean nothing
//! here, only their names, units and presence are checked.

use flowbench::spec::{MetricSpec, Scale, END_TO_END, PER_LAYER, WORKLOADS};
use flowbench::trace::check_nesting;
use flowbench::{RunOpts, RunReport};
use serde::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match doc.get_field(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key}: expected a list, got {other:?}"),
    }
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    match entry.get_field(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    list(doc, key)
        .iter()
        .map(|e| (text(e, "name").to_owned(), text(e, "unit").to_owned()))
        .collect()
}

fn table(specs: &[MetricSpec]) -> Vec<(String, String)> {
    specs
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_benchmark_emits() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(list(&doc, "paths"), [Value::Str("crates/flowbench".into())]);

    let workloads: Vec<&str> = list(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for w in list(&doc, "workloads") {
        assert_eq!(keys(w), ["name", "why"]);
        let why = text(w, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "why of {}",
            text(w, "name")
        );
    }

    assert_eq!(declared(&doc, "end_to_end"), table(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), table(PER_LAYER));
    for (name, _) in declared(&doc, "end_to_end")
        .iter()
        .chain(&declared(&doc, "per_layer"))
    {
        assert!(well_formed(name), "metric name {name}");
    }
    for w in WORKLOADS {
        assert!(well_formed(w), "workload name {w}");
    }

    for e in list(&doc, "end_to_end") {
        assert_eq!(keys(e), ["name", "unit", "better", "bound"]);
        assert!(["higher", "lower"].contains(&text(e, "better")));
        match e.get_field("bound") {
            Some(Value::Float(b)) => {
                assert!(*b > 0.0 && *b <= 0.25, "bound of {}", text(e, "name"))
            }
            other => panic!("bound of {}: {other:?}", text(e, "name")),
        }
    }
    for e in list(&doc, "per_layer") {
        assert_eq!(keys(e), ["name", "unit", "better"]);
    }
    let setup = list(&doc, "end_to_end")
        .iter()
        .find(|e| text(e, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
}

fn run(workload: &str, trace: bool) -> RunReport {
    let opts = RunOpts {
        workload: workload.to_owned(),
        seed: 5,
        seconds: 0.1,
        trace,
        scale: Scale::TINY,
    };
    flowbench::run(&opts).expect("a known workload")
}

fn assert_emits(report: &RunReport, specs: &[MetricSpec]) {
    let emitted: Vec<MetricSpec> = report.metrics.iter().map(|(m, _)| *m).collect();
    assert_eq!(emitted, specs, "{}", report.workload);
    for (m, v) in &report.metrics {
        assert!(v.is_finite(), "{}: {} = {v}", report.workload, m.name);
    }
    assert_eq!(
        report.tally.failed, 0,
        "{}: operations failed",
        report.workload
    );
    assert!(report.tally.attempted >= 1);
    let result = report.result_json();
    assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get_field("correct"), Some(&Value::Bool(true)));
    for (name, entry) in result
        .get_field("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
    {
        assert_eq!(keys(entry), ["value", "unit"], "{name}");
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in WORKLOADS {
        let report = run(w, false);
        assert_emits(&report, END_TO_END);
        for (m, v) in &report.metrics {
            assert!(
                *v > 0.0,
                "{w}: end-to-end metric {} must never be 0",
                m.name
            );
        }
        assert!(
            report.spans.is_empty(),
            "{w}: the end-to-end run records no spans"
        );
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_and_nested_spans() {
    for w in WORKLOADS {
        let report = run(w, true);
        assert_emits(&report, PER_LAYER);
        // Times are measurements even for a layer the workload never
        // enters: the timer floor, never a literal 0.
        for (m, v) in &report.metrics {
            if flowbench::spec::time_unit_seconds(m.unit).is_some()
                && m.name != "engine.unattributed_s"
            {
                assert!(*v > 0.0, "{w}: time {} reads {v}", m.name);
            }
        }
        assert!(
            !report.spans.is_empty(),
            "{w}: the traced run records spans"
        );
        check_nesting(&report.spans).unwrap_or_else(|e| panic!("{w}: {e}"));
        let jobs = report
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name != "setup")
            .count();
        assert!(jobs >= 2, "{w}: one trace per job");
    }
}

#[test]
fn span_nesting_check_rejects_a_child_outside_its_parent() {
    use flowbench::trace::Span;
    let span = |id, parent, start_s, end_s| Span {
        name: "s".into(),
        trace: 1,
        id,
        parent,
        start_s,
        end_s,
    };
    assert!(check_nesting(&[span(1, None, 0.0, 2.0), span(2, Some(1), 0.5, 1.5)]).is_ok());
    assert!(check_nesting(&[span(1, None, 0.0, 2.0), span(2, Some(1), 0.5, 2.5)]).is_err());
    assert!(check_nesting(&[span(1, None, 0.0, 2.0), span(2, None, 0.0, 1.0)]).is_err());
    assert!(check_nesting(&[span(2, Some(9), 0.0, 1.0)]).is_err());
}
