//! Spans the benchmark records around its own calls into the program.
//!
//! The program has no tracing of its own yet, so every span here is taken
//! from outside: name, start, end, the span that caused it, and the trace
//! (one per job) it belongs to. Spans stay in memory and are written out
//! once, when the run ends. With tracing off nothing is stored, which is
//! the configuration every end-to-end number comes from.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Value;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran, e.g. `job.staged` or `serve.queue`.
    pub name: String,
    /// Trace this span belongs to; all spans of one job share it.
    pub trace: u64,
    /// Unique id within the run.
    pub id: u64,
    /// The span that caused this one; `None` for a trace's root.
    pub parent: Option<u64>,
    /// Seconds since the tracer's epoch.
    pub start_s: f64,
    /// Seconds since the tracer's epoch.
    pub end_s: f64,
}

/// In-memory span sink with a monotonic clock.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
}

impl Tracer {
    /// A tracer that stores spans only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            epoch: Instant::now(),
            on,
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// Whether spans are being stored.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Seconds since this tracer was created.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// A fresh id: a trace id, or a span id reserved for [`Tracer::record_as`].
    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores one finished span under a fresh id.
    pub fn record(&self, name: &str, trace: u64, parent: Option<u64>, start_s: f64, end_s: f64) {
        self.record_as(self.fresh_id(), name, trace, parent, start_s, end_s);
    }

    /// Stores one finished span under an id reserved with
    /// [`Tracer::fresh_id`] — how a root is recorded after the children
    /// that name it as their parent. Nothing is stored with tracing off.
    pub fn record_as(
        &self,
        id: u64,
        name: &str,
        trace: u64,
        parent: Option<u64>,
        start_s: f64,
        end_s: f64,
    ) {
        if !self.on {
            return;
        }
        self.spans
            .lock()
            .expect("span sink poisoned: a recording thread panicked")
            .push(Span {
                name: name.to_owned(),
                trace,
                id,
                parent,
                start_s,
                end_s,
            });
    }

    /// Runs `f` and returns its result with the interval it took.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let start = self.now();
        let r = f();
        (r, start, self.now())
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span sink poisoned: a recording thread panicked")
            .clone()
    }
}

/// Spans as the `trace.json` document.
pub fn spans_json(spans: &[Span]) -> Value {
    let spans = spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("name".into(), Value::Str(s.name.clone())),
                ("trace".into(), Value::UInt(s.trace)),
                ("id".into(), Value::UInt(s.id)),
                ("parent".into(), s.parent.map_or(Value::Null, Value::UInt)),
                ("start_us".into(), Value::Float(s.start_s * 1e6)),
                ("end_us".into(), Value::Float(s.end_s * 1e6)),
            ])
        })
        .collect();
    Value::Object(vec![("spans".into(), Value::Array(spans))])
}

/// Checks that spans nest: ids unique, every parent exists in the same
/// trace and encloses its child, and each trace has exactly one root.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    use std::collections::HashMap;
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    if by_id.len() != spans.len() {
        return Err("duplicate span id".into());
    }
    let mut roots: HashMap<u64, u32> = HashMap::new();
    for s in spans {
        if s.end_s < s.start_s {
            return Err(format!("span {} ends before it starts", s.name));
        }
        match s.parent {
            None => *roots.entry(s.trace).or_default() += 1,
            Some(p) => {
                let parent = by_id
                    .get(&p)
                    .ok_or_else(|| format!("span {} has no parent {p}", s.name))?;
                if parent.trace != s.trace {
                    return Err(format!("span {} crosses traces", s.name));
                }
                if s.start_s < parent.start_s || s.end_s > parent.end_s {
                    return Err(format!("span {} leaves its parent {}", s.name, parent.name));
                }
                roots.entry(s.trace).or_default();
            }
        }
    }
    match roots.iter().find(|(_, &n)| n != 1) {
        Some((trace, n)) => Err(format!("trace {trace} has {n} roots")),
        None => Ok(()),
    }
}
