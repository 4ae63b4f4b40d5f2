//! Streaming workload family: Nexmark-style queries with oracles.
//!
//! Two queries over the [`flowmark_datagen::nexmark`] auction stream,
//! each runnable on both checkpointed runtimes and verifiable against an
//! independent sequential oracle:
//!
//! - **q3** ([`Q3Join`]) — filter-join: persons from a set of states
//!   joined with auctions in one category on `auction.seller ==
//!   person.id`. Stateful and unwindowed; every matched pair is emitted
//!   exactly once, whichever side arrives first.
//! - **q6** ([`q6_operator`]) — windowed aggregate: bids keyed by
//!   auction id, folded into tumbling windows (sum / count / max of the
//!   price), fired as the watermark passes each window's end.
//!
//! The oracles ([`q3_oracle`], [`q6_oracle`]) re-derive the expected
//! output from the raw event vector with a *sequential* watermark
//! simulation — no channels, no checkpoints, no faults — so a chaos run
//! that detects, recovers and replays must still match them byte-for-
//! byte (after canonical sorting) to count as exactly-once.

use std::collections::BTreeMap;

use flowmark_columnar::checksum::Xxh64;
use flowmark_datagen::nexmark::NexmarkEvent;
use flowmark_engine::streaming::window::{StreamOperator, WindowAssigner, WindowResult, WindowedAggregate};
use flowmark_engine::streaming::{SourceConfig, StreamEvent, StreamSource};

/// q3's person filter: home state in `0..Q3_STATE_CUT`.
pub const Q3_STATE_CUT: u64 = 3;
/// q3's auction filter: this category only.
pub const Q3_CATEGORY: u64 = 10;
/// q6's tumbling window size in ticks.
pub const Q6_WINDOW: u64 = 64;

/// The two Nexmark queries a [`crate::cell::Cell`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Filter-join ([`Q3Join`]).
    Q3,
    /// Windowed aggregate ([`q6_operator`]).
    Q6,
}

/// Partition routing shared by every Nexmark query: persons by id,
/// auctions by seller, bids by auction. This colocates each q3 join key
/// (person id = auction seller) and each q6 window key on one task.
pub fn route_nexmark(e: &NexmarkEvent) -> u64 {
    match e {
        NexmarkEvent::Person(p) => p.id,
        NexmarkEvent::Auction(a) => a.seller,
        NexmarkEvent::Bid(b) => b.auction,
    }
}

/// q6's extractor: bids become `(auction, price)` pairs, everything else
/// passes through unaggregated.
pub fn bid_price(e: &NexmarkEvent) -> Option<(u64, u64)> {
    match e {
        NexmarkEvent::Bid(b) => Some((b.auction, b.price)),
        _ => None,
    }
}

/// Builds the q6 operator: tumbling [`Q6_WINDOW`]-tick windows over bid
/// prices keyed by auction.
pub fn q6_operator() -> WindowedAggregate<NexmarkEvent> {
    WindowedAggregate::new(WindowAssigner::Tumbling { size: Q6_WINDOW }, bid_price)
}

/// One q3 output row: an in-state person's in-category auction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Q3Row {
    /// The auction id.
    pub auction: u64,
    /// The seller (person) id.
    pub seller: u64,
    /// The seller's state code.
    pub state: u64,
    /// The seller's city code.
    pub city: u64,
}

/// q3 filter-join operator. State is two keyed tables: filtered persons
/// seen so far, and filtered auctions whose seller has not yet arrived.
/// Whichever side arrives second emits the row, so each pair is emitted
/// exactly once regardless of arrival order.
#[derive(Debug, Default)]
pub struct Q3Join {
    /// Filtered persons: `id → (state, city)`.
    persons: BTreeMap<u64, (u64, u64)>,
    /// Filtered auctions waiting for their seller: `(seller, auction)`.
    pending: BTreeMap<(u64, u64), ()>,
    /// Reusable buffer for auctions flushed by an arriving person —
    /// keeps the hot per-person path allocation-free after warm-up.
    /// Deliberately not part of [`Self::State`]: it is always drained
    /// before `on_event` returns.
    ready: Vec<(u64, u64)>,
}

impl Q3Join {
    /// Fresh empty join state.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StreamOperator for Q3Join {
    type In = NexmarkEvent;
    type Out = Q3Row;
    /// `(persons sorted by id, pending sorted by (seller, auction))`.
    type State = (Vec<[u64; 3]>, Vec<[u64; 2]>);

    fn on_event(&mut self, event: &StreamEvent<NexmarkEvent>, out: &mut Vec<Q3Row>) {
        match event.payload {
            NexmarkEvent::Person(p) => {
                if p.state < Q3_STATE_CUT {
                    self.persons.insert(p.id, (p.state, p.city));
                    // Flush auctions that were waiting for this seller.
                    self.ready.extend(
                        self.pending
                            .range((p.id, 0)..=(p.id, u64::MAX))
                            .map(|(&k, ())| k),
                    );
                    for i in 0..self.ready.len() {
                        let key = self.ready[i];
                        self.pending.remove(&key);
                        out.push(Q3Row {
                            auction: key.1,
                            seller: p.id,
                            state: p.state,
                            city: p.city,
                        });
                    }
                    self.ready.clear();
                }
            }
            NexmarkEvent::Auction(a) => {
                if a.category == Q3_CATEGORY {
                    if let Some(&(state, city)) = self.persons.get(&a.seller) {
                        out.push(Q3Row {
                            auction: a.id,
                            seller: a.seller,
                            state,
                            city,
                        });
                    } else {
                        self.pending.insert((a.seller, a.id), ());
                    }
                }
            }
            NexmarkEvent::Bid(_) => {}
        }
    }

    fn on_watermark(&mut self, _watermark: u64, _out: &mut Vec<Q3Row>) {}

    fn state(&self) -> Self::State {
        (
            self.persons
                .iter()
                .map(|(&id, &(state, city))| [id, state, city])
                .collect(),
            self.pending.keys().map(|&(s, a)| [s, a]).collect(),
        )
    }

    fn restore(&mut self, state: Self::State) {
        self.persons = state.0.into_iter().map(|[id, s, c]| (id, (s, c))).collect();
        self.pending = state.1.into_iter().map(|[s, a]| ((s, a), ())).collect();
    }

    fn write_state(state: &Self::State, h: &mut Xxh64) {
        h.write_u64(state.0.len() as u64);
        for row in &state.0 {
            h.write_u64s(row);
        }
        h.write_u64(state.1.len() as u64);
        for row in &state.1 {
            h.write_u64s(row);
        }
    }
}

/// Wraps `(time, event)` pairs from the generator as a stream source.
pub fn nexmark_source(
    events: Vec<(u64, NexmarkEvent)>,
    config: SourceConfig,
) -> StreamSource<NexmarkEvent> {
    StreamSource::with_config(
        events
            .into_iter()
            .map(|(t, e)| StreamEvent::new(t, e))
            .collect(),
        config,
    )
}

/// Sequential watermark simulation: which events survive the late-data
/// policy, given the exact arrival order. Mirrors the runtimes'
/// semantics — an event is dropped iff its time is behind the watermark
/// in force when it arrives, and the watermark advances to
/// `max time seen − allowance` after every `watermark_every` arrivals
/// (unless stalled).
fn kept_events<'a, T>(
    events: &'a [StreamEvent<T>],
    cfg: &SourceConfig,
) -> Vec<&'a StreamEvent<T>> {
    let wm_every = cfg.watermark_every.max(1);
    let mut frontier = 0u64;
    let mut wm = 0u64;
    let mut kept = Vec::with_capacity(events.len());
    for (idx, ev) in events.iter().enumerate() {
        if ev.time >= wm {
            kept.push(ev);
        }
        frontier = frontier.max(ev.time);
        let emitted = idx as u64 + 1;
        let stalled = cfg.stall_watermark_after.is_some_and(|cut| emitted > cut);
        if emitted % wm_every == 0 && !stalled {
            wm = frontier.saturating_sub(cfg.allowance);
        }
    }
    kept
}

/// Independent q3 oracle: the full filter-join over surviving events,
/// sorted canonically.
pub fn q3_oracle(source: &StreamSource<NexmarkEvent>) -> Vec<Q3Row> {
    let mut persons: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let mut auctions: Vec<(u64, u64)> = Vec::new();
    for ev in kept_events(&source.events, &source.config) {
        match ev.payload {
            NexmarkEvent::Person(p) if p.state < Q3_STATE_CUT => {
                persons.insert(p.id, (p.state, p.city));
            }
            NexmarkEvent::Auction(a) if a.category == Q3_CATEGORY => {
                auctions.push((a.seller, a.id));
            }
            _ => {}
        }
    }
    let mut rows: Vec<Q3Row> = auctions
        .into_iter()
        .filter_map(|(seller, auction)| {
            persons.get(&seller).map(|&(state, city)| Q3Row {
                auction,
                seller,
                state,
                city,
            })
        })
        .collect();
    rows.sort();
    rows
}

/// Independent q6 oracle: arithmetic window assignment and aggregation
/// over surviving bids, sorted canonically. The final MAX watermark
/// flushes every window, so every assigned window appears.
pub fn q6_oracle(source: &StreamSource<NexmarkEvent>) -> Vec<WindowResult> {
    let mut windows: BTreeMap<(u64, u64), (u64, u64, u64)> = BTreeMap::new();
    for ev in kept_events(&source.events, &source.config) {
        if let NexmarkEvent::Bid(b) = ev.payload {
            let start = ev.time - ev.time % Q6_WINDOW;
            let w = windows.entry((b.auction, start)).or_insert((0, 0, 0));
            w.0 = w.0.wrapping_add(b.price);
            w.1 += 1;
            w.2 = w.2.max(b.price);
        }
    }
    let mut out: Vec<WindowResult> = windows
        .into_iter()
        .map(|((key, start), (sum, count, max))| WindowResult {
            key,
            start,
            end: start + Q6_WINDOW,
            sum,
            count,
            max,
        })
        .collect();
    out.sort();
    out
}

/// Sorts committed outputs into the oracles' canonical order (strips
/// epoch tags).
pub fn canonical<Out: Ord + Clone>(committed: &[(u64, Out)]) -> Vec<Out> {
    let mut v: Vec<Out> = committed.iter().map(|(_, o)| o.clone()).collect();
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmark_datagen::nexmark::{generate, NexmarkConfig};
    use flowmark_engine::faults::{install_quiet_hook, CancelToken, FaultConfig, FaultPlan};
    use flowmark_engine::metrics::EngineMetrics;
    use flowmark_engine::streaming::runtime::{
        run_continuous_checkpointed, run_micro_batch_checkpointed, StreamJobConfig,
    };
    use flowmark_engine::streaming::source::shuffle_bounded;

    fn source(n: usize, seed: u64) -> StreamSource<NexmarkEvent> {
        let events = generate(seed, n, &NexmarkConfig::default());
        nexmark_source(
            events,
            SourceConfig {
                allowance: 32,
                watermark_every: 16,
                stall_watermark_after: None,
                hold_at_end: false,
            },
        )
    }

    #[test]
    fn q3_matches_oracle_on_both_runtimes() {
        let src = source(1_500, 3);
        let cfg = StreamJobConfig::default();
        let plan = FaultPlan::disabled();
        let m = EngineMetrics::new();
        let c = CancelToken::new();
        let ct =
            run_continuous_checkpointed(&src, |_| Q3Join::new(), route_nexmark, &cfg, &plan, &m, &c);
        let mb =
            run_micro_batch_checkpointed(&src, |_| Q3Join::new(), route_nexmark, &cfg, &plan, &m, &c);
        let oracle = q3_oracle(&src);
        assert!(!oracle.is_empty(), "q3 oracle produced nothing");
        assert_eq!(canonical(&ct.committed), oracle);
        assert_eq!(canonical(&mb.committed), oracle);
        assert_eq!(ct.committed, mb.committed);
    }

    #[test]
    fn q6_matches_oracle_under_chaos_and_disorder() {
        install_quiet_hook();
        let mut src = source(1_500, 5);
        src.events = shuffle_bounded(src.events, 17, 6);
        let cfg = StreamJobConfig::default();
        let plan = FaultPlan::new(FaultConfig::corruption(23));
        let m = EngineMetrics::new();
        let c = CancelToken::new();
        let ct =
            run_continuous_checkpointed(&src, |_| q6_operator(), route_nexmark, &cfg, &plan, &m, &c);
        let oracle = q6_oracle(&src);
        assert!(!oracle.is_empty(), "q6 oracle produced nothing");
        assert_eq!(canonical(&ct.committed), oracle, "chaos broke exactly-once");
        assert!(m.recovery().injected_failures > 0, "kill never fired");
        assert!(m.recovery().region_restarts > 0, "no restart happened");
        assert!(m.recovery().checkpoints_rejected > 0, "no rotten checkpoint");
        assert!(m.windows_emitted() > 0);
    }

    #[test]
    fn late_events_are_dropped_consistently() {
        // Delay every 10th event far beyond the allowance (guaranteed
        // late) and jitter the rest within it (lag, not lateness): the
        // oracle and the runtimes must agree on exactly which events
        // died.
        let src0 = source(1_200, 9);
        let delayed = flowmark_engine::streaming::source::delay_every(
            shuffle_bounded(src0.events.clone(), 13, 2),
            10,
            60,
        );
        let src = StreamSource::with_config(
            delayed,
            SourceConfig {
                allowance: 8,
                watermark_every: 8,
                stall_watermark_after: None,
                hold_at_end: false,
            },
        );
        let cfg = StreamJobConfig::default();
        let plan = FaultPlan::disabled();
        let m = EngineMetrics::new();
        let c = CancelToken::new();
        let ct =
            run_continuous_checkpointed(&src, |_| q6_operator(), route_nexmark, &cfg, &plan, &m, &c);
        assert_eq!(canonical(&ct.committed), q6_oracle(&src));
        assert!(m.late_events_dropped() > 0, "no late drops despite delays");
        assert!(m.watermark_lag_events() > 0, "no out-of-order arrivals seen");
    }
}
