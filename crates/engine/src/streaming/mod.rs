//! Event-time streaming — the paper's stated future work (§VIII: "we plan
//! to extend the evaluation with SQL and streaming benchmarks, and examine
//! in this context whether treating batches as finite sets of streamed
//! data pays off").
//!
//! The layer is built on four pieces, all driven by a **deterministic
//! logical clock** (event time is a plain `u64` tick; no `Instant`
//! anywhere, so every test and chaos drill replays bit-for-bit):
//!
//! - [`source`] — a replayable event source that assigns watermarks at
//!   fixed stream positions and can deterministically disorder or delay
//!   events ([`source::shuffle_bounded`], [`source::delay_every`]).
//! - [`window`] — event-time window assignment (tumbling / sliding /
//!   session with merging) and the [`StreamOperator`] trait that window
//!   state snapshots plug into.
//! - [`runtime`] — two checkpointed runtimes over the same source
//!   semantics: [`runtime::run_continuous_checkpointed`] (record-at-a-time
//!   across threads, channel-aligned barriers à la `flink::Msg::Barrier`)
//!   and [`runtime::run_micro_batch_checkpointed`] (discretized batches of
//!   exactly one checkpoint interval). Both commit window results through
//!   a transactional sink, so under seeded kills, stragglers and rotten
//!   checkpoints each result is emitted **exactly once** — byte-equal to
//!   an independent oracle.
//! - [`model`] — the closed-form latency model answering the §VIII
//!   question quantitatively ([`run_micro_batch`] vs [`run_continuous`])
//!   in logical ticks, immune to scheduler noise.
//!
//! ## Exactly-once, in one paragraph
//!
//! The source broadcasts `Barrier(k)` after every `checkpoint_interval`
//! events; a task snapshots its operator state when the barrier arrives
//! (sealed with an xxHash64 digest under the fault plan's checksum seed)
//! and forwards the barrier. The sink buffers outputs per epoch and
//! commits epoch `k` only when barrier `k` has arrived from every task —
//! and only if `k` is newer than the last committed epoch. On failure the
//! job restarts from the newest *clean* complete snapshot (rotten digests
//! are rejected and counted), the source replays the covered prefix
//! silently, and replayed epochs are suppressed at the sink.
//!
//! ## Batch-native transport
//!
//! With `StreamJobConfig::slab_rows > 1` (the default) the continuous
//! runtime moves events between source, tasks and sink in *slabs* rather
//! than one channel send per record. Watermarks ride **in-band** inside
//! the slab at their exact stream position, so slabs span watermark ticks
//! and flush only at barriers or stream end; tasks fold each
//! between-watermark run through [`StreamOperator::on_batch`], and
//! everything a slab produces — its runs' outputs and its watermark
//! firings — reaches the sink as one `SinkMsg::Items`. Windows fire in
//! one ordered pass over the open-window tree. Per-partition ordering of
//! events and watermarks is identical to the per-event transport, so
//! every committed `(epoch, result)` sequence is byte-equal to
//! `slab_rows: 1` — proptested under arbitrary kill schedules.

pub mod model;
pub mod runtime;
pub mod source;
pub mod window;

pub use model::{run_continuous, run_micro_batch, StreamStats};
pub use runtime::{run_continuous_checkpointed, run_micro_batch_checkpointed, StreamJobConfig, StreamRunResult};
pub use source::{delay_every, shuffle_bounded, SourceConfig, StreamSource};
pub use window::{StreamOperator, WindowAssigner, WindowResult, WindowedAggregate};

/// A stream record stamped with its logical event time.
///
/// Event time is a `u64` tick assigned by the generator, not a wall
/// clock: determinism is the whole point (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamEvent<T> {
    /// Logical event time in ticks.
    pub time: u64,
    /// The payload.
    pub payload: T,
}

impl<T> StreamEvent<T> {
    /// Stamps a payload with an event time.
    pub fn new(time: u64, payload: T) -> Self {
        Self { time, payload }
    }
}
