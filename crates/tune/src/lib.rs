//! # flowmark-tune
//!
//! Bottleneck-guided auto-tuning of the two real engines.
//!
//! The paper's central claim is methodological: you cannot explain (or fix)
//! a Spark-vs-Flink performance gap without correlating the operator plan
//! with resource utilisation (§V). Default configurations are the wrong
//! configurations — §IV spends a page tuning parallelism, network buffers
//! and memory fractions per workload before any comparison is fair. This
//! crate mechanises that tuning loop:
//!
//! 1. [`space`] — the knob space: every axis of
//!    [`flowmark_core::config::EngineConfig`] with the values worth trying,
//!    filtered per engine (the partitioner choice only exists on the staged
//!    engine; network buffers only throttle the pipelined one).
//! 2. [`search`] — deterministic, seeded strategies over that space (grid,
//!    random, successive halving) behind one [`search::Tuner`] with a run
//!    cache keyed by config fingerprint: a config measured once is never
//!    executed again.
//! 3. [`profile`] — each trial's metrics are synthesised into
//!    [`flowmark_core::telemetry::ClusterTelemetry`] and classified by the
//!    real [`flowmark_core::correlate::correlate`] pass into a
//!    [`profile::Bottleneck`] verdict.
//! 4. [`guided`] — a hill-climb that moves exactly the knob the paper's
//!    methodology would move for that verdict (spill-bound → grow the sort
//!    budget, §VI-A; network-bound → grow buffers, §IV-B; CPU-bound → grow
//!    parallelism, §IV-A).
//! 5. [`workbench`] — the measurement rig: the six workloads of Table III
//!    on either engine, each a `flowmark_workloads::cell::Cell`, so every
//!    trial is checked against its sequential oracle.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod guided;
pub mod profile;
pub mod search;
pub mod space;
pub mod workbench;

pub use profile::{classify, Bottleneck, Verdict};
pub use search::{Budget, Measure, Measurement, Strategy, Trial, TuneOutcome, Tuner};
pub use space::ParamSpace;
pub use workbench::Workbench;
