//! # flowmark-engine
//!
//! Two real, multi-threaded dataflow engines embodying the architectural
//! dichotomy the paper measures (§II-C):
//!
//! | | [`spark`] ("Riverbed") | [`flink`] ("Streamside") |
//! |---|---|---|
//! | execution | staged, shuffle barriers | pipelined, bounded channels |
//! | data | lazy RDDs with lineage | chained DataSet operators |
//! | persistence | explicit [`cache::StorageLevel`] | none (recompute) |
//! | iterations | driver loop unrolling | native operators ([`iterate`]) |
//! | aggregation | hash or sort-based shuffle | sort-based combine ([`sortbuf`]) |
//! | memory | one heap budget + GC model | managed segment pool ([`memory`]) |
//!
//! These engines execute real data on the local machine. They serve two
//! purposes in the reproduction: (1) proving both execution models compute
//! identical results on the paper's six workloads, and (2) calibrating the
//! cluster simulator (`flowmark-sim`) that regenerates the paper's
//! figures at cluster scale.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cache;
pub mod csr;
pub mod faults;
pub mod flink;
pub mod gelly;
pub mod graphx;
pub mod hash;
pub mod iterate;
pub mod memory;
pub mod messages;
pub mod metrics;
pub mod runtime;
pub mod sampler;
pub mod shuffle;
pub mod sortbuf;
pub mod setup;
pub mod spark;
pub mod streaming;

pub use cache::StorageLevel;
pub use faults::{CancelToken, FaultConfig, FaultPlan, JobCancelled};
pub use flink::{DataSet, FlinkEnv};
pub use iterate::{
    bulk_iterate, vertex_centric, IterationError, IterationMode, PartitionedGraph, Vertex,
};
pub use flowmark_core::config::{EngineConfig, ExecutorMode, PartitionerChoice};
pub use metrics::{EngineMetrics, MetricsSnapshot, RecoverySnapshot};
pub use runtime::{CachedStage, FragmentHandle};
pub use setup::Setup;
pub use shuffle::ShuffleBatch;
pub use spark::{Rdd, SparkContext};
pub use streaming::{
    run_continuous, run_continuous_checkpointed, run_micro_batch, run_micro_batch_checkpointed,
    shuffle_bounded, SourceConfig, StreamEvent, StreamJobConfig, StreamOperator, StreamRunResult,
    StreamSource, StreamStats, WindowAssigner, WindowResult, WindowedAggregate,
};
