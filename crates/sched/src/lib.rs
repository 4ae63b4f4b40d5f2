//! # flowmark-sched
//!
//! The multi-tenant scheduling substrate shared by both engines.
//!
//! Originally every job spawned its own threads for every stage: the
//! staged engine through a data-parallel shim (one scoped thread per
//! chunk, per call), the pipelined engine one scoped thread per
//! partition per operator. "Performance Characterization of In-Memory
//! Data Analytics on a Modern Cloud Server" observes that these
//! frameworks leave cores idle across phases — headroom a *shared* pool
//! with work stealing reclaims once many small jobs coexist. Both engines
//! now run every finite stage task on that pool. This crate provides:
//!
//! - [`TaskPool`] — a fixed set of worker threads with per-worker deques
//!   and steal-on-idle. Engines submit whole stages as *batches* of
//!   borrowed closures ([`TaskPool::run_batch`]); the submitting thread
//!   helps execute its own batch while it waits, so nested stages (a
//!   shuffle materialising inside a pool task) can always make progress
//!   and the pool cannot deadlock on itself.
//! - [`FragmentCache`] — a fingerprint-keyed, byte-budgeted LRU over
//!   materialized sealed stage outputs, generalizing `tune`'s per-run
//!   config cache across jobs and tenants. The cache stores opaque
//!   `Arc<dyn Any>` fragments; *verification stays with the engines*
//!   (the PR 7 checksum is re-checked at reuse time before a hit is
//!   trusted), and eviction can be charged against an external byte
//!   ledger (the serve `MemoryBudget`) via [`BytesLedger`].
//!
//! Fair-share admission (deficit round robin over tenant lanes) lives in
//! `flowmark-serve`, which owns the queue types; this crate stays free
//! of job/service types so both engines can depend on it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod fragcache;
pub mod pool;

pub use fragcache::{BytesLedger, FragmentCache, FragmentCacheStats, FragmentKey};
pub use pool::{BatchStats, PoolStats, TaskPool};
