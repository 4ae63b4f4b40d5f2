//! # flowmark-columnar
//!
//! The columnar batch execution core: fixed-size typed column batches with
//! vectorized kernels, shared by both engines.
//!
//! The paper attributes much of the Spark/Flink gap to per-record overhead
//! in the hot paths (shuffle, aggregation, sort): record-at-a-time
//! execution pays a virtual dispatch, a branch and often an allocation per
//! record, leaving the workloads DRAM-latency-bound. This crate replaces
//! that with batch-at-a-time processing:
//!
//! - **[`batch`]** — typed column vectors ([`Column`]: `U64`/`I64`/`F64`/
//!   `Bytes`/`Str`), flat variable-width storage ([`StrColumn`]: one byte
//!   buffer + offsets, no per-row `String`), validity bitmasks
//!   ([`Validity`]) and selection vectors ([`SelVec`]) so filters never
//!   copy data;
//! - **[`kernels`]** — vectorized filter (predicate → selection vector),
//!   project/gather (selection → materialized batch), hash-aggregation
//!   (batch-at-a-time probe into a caller-supplied map — the engines pass
//!   their pre-sized FxHash maps) and tokenize-and-count into a
//!   [`WordDict`];
//! - **[`dict`]** — [`WordDict`], an open-addressing word → count table
//!   over a byte arena whose one hash per word also routes it;
//! - **[`kvbatch`]** — key/value batches whose shuffle routing moves whole
//!   column slices per reducer instead of cloning `(K, V)` pairs one at a
//!   time.
//!
//! The record API stays available during migration: every batch type
//! exposes row iterators (`StrColumn::iter`, `StrU64Batch::iter`) that
//! adapt a batch back into a record stream, so scalar consumers keep
//! working unchanged while hot paths move to the kernels.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod batch;
pub mod checksum;
pub mod dict;
pub mod kernels;
pub mod kvbatch;

pub use batch::{
    BytesColumn, Column, ColumnBatch, F64Batch, SelVec, StrColumn, Validity, DEFAULT_BATCH_ROWS,
};
pub use checksum::{Checksummable, CorruptionKind, Xxh64};
pub use dict::WordDict;
pub use kvbatch::{route_rows, StrU64Batch};
