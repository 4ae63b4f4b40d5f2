//! Event-time windows: assignment, merging, and snapshottable state.
//!
//! A [`WindowAssigner`] maps an event time to one or more `[start, end)`
//! windows. [`WindowedAggregate`] folds keyed `(key, value)` events into
//! per-window accumulators, emits [`WindowResult`]s when the watermark
//! passes a window's end, and exposes its state as a flat word vector so
//! the runtime can seal it into a checkpoint digest ([`StreamOperator`]).
//!
//! Session windows merge: every event opens a proto-window
//! `[t, t + gap)`, and any existing window of the same key that overlaps
//! or touches it is absorbed (start = min, end = max, accumulators
//! merged). Two events belong to one session iff a chain of ≤`gap`
//! steps connects them — exactly the Flink semantics the paper's §VIII
//! points at.

use std::collections::BTreeMap;

use flowmark_columnar::checksum::Xxh64;
use flowmark_columnar::kernels;

use crate::hash::{fx_map_with_capacity, FxHashMap};

use super::StreamEvent;

/// How event times map to windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowAssigner {
    /// Fixed, non-overlapping windows of `size` ticks.
    Tumbling {
        /// Window length in ticks (must be > 0).
        size: u64,
    },
    /// Overlapping windows of `size` ticks, one starting every `slide`
    /// ticks.
    Sliding {
        /// Window length in ticks (must be > 0).
        size: u64,
        /// Tick distance between consecutive window starts (must be > 0
        /// and ≤ `size`).
        slide: u64,
    },
    /// Per-key activity sessions closed by `gap` ticks of silence.
    Session {
        /// Inactivity gap in ticks (must be > 0).
        gap: u64,
    },
}

impl WindowAssigner {
    /// The `[start, end)` windows containing event time `t`. Session
    /// windows return the proto-window `[t, t + gap)`; merging happens in
    /// the operator.
    pub fn assign(&self, t: u64) -> Vec<(u64, u64)> {
        if let WindowAssigner::Session { gap } = *self {
            return vec![(t, t + gap.max(1))];
        }
        let mut v = Vec::with_capacity(1);
        self.for_each_window(t, |s, e| v.push((s, e)));
        v
    }

    /// Calls `f(start, end)` for every non-merging window containing `t`,
    /// without allocating the `Vec` that [`WindowAssigner::assign`]
    /// returns — both folds' per-event hot path.
    ///
    /// # Panics
    /// Panics for session assigners: merged windows have no static
    /// assignment (callers check [`WindowAssigner::merging`] first).
    pub fn for_each_window(&self, t: u64, mut f: impl FnMut(u64, u64)) {
        match *self {
            WindowAssigner::Tumbling { size } => {
                let size = size.max(1);
                let start = t - t % size;
                f(start, start + size);
            }
            WindowAssigner::Sliding { size, slide } => {
                let size = size.max(1);
                let slide = slide.max(1).min(size);
                // Starts s with s ≤ t < s + size and s ≡ 0 (mod slide).
                let last = t - t % slide;
                let first = (t + 1).saturating_sub(size);
                let first = first.div_ceil(slide) * slide;
                for s in (first..=last).step_by(slide as usize) {
                    f(s, s + size);
                }
            }
            WindowAssigner::Session { .. } => {
                unreachable!("session windows merge; they have no static assignment")
            }
        }
    }

    /// True for merging (session) assigners.
    pub fn merging(&self) -> bool {
        matches!(self, WindowAssigner::Session { .. })
    }
}

/// A keyed window result: the aggregate of every `(key, value)` event
/// assigned to `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WindowResult {
    /// Grouping key.
    pub key: u64,
    /// Window start tick (inclusive).
    pub start: u64,
    /// Window end tick (exclusive).
    pub end: u64,
    /// Sum of values.
    pub sum: u64,
    /// Number of events.
    pub count: u64,
    /// Maximum value.
    pub max: u64,
}

/// An operator whose state can be snapshotted into a checkpoint barrier
/// and restored after a region restart.
///
/// `write_state` is an associated function (no `&self`) so the recovery
/// path can re-digest a *stored* snapshot and compare it against the
/// sealed digest without an operator instance.
pub trait StreamOperator: Send {
    /// Input payload type.
    type In: Clone + Send + 'static;
    /// Output record type.
    type Out: Clone + Send + 'static;
    /// Snapshottable state.
    type State: Clone + Send + 'static;

    /// Folds one event into operator state, appending any immediate
    /// outputs to `out`.
    fn on_event(&mut self, event: &StreamEvent<Self::In>, out: &mut Vec<Self::Out>);
    /// Folds a transport slab of events batch-at-a-time, appending
    /// immediate outputs in event order. The default loops
    /// [`StreamOperator::on_event`]; overriders must produce state and
    /// outputs identical to that loop for any slab partitioning of the
    /// same event sequence (the runtimes' byte-equality contract).
    fn on_batch(&mut self, events: &[StreamEvent<Self::In>], out: &mut Vec<Self::Out>) {
        for ev in events {
            self.on_event(ev, out);
        }
    }
    /// Advances event time: windows ending at or before `watermark` are
    /// finalised and appended to `out`.
    fn on_watermark(&mut self, watermark: u64, out: &mut Vec<Self::Out>);
    /// Captures a snapshot of the operator state.
    fn state(&self) -> Self::State;
    /// Restores a snapshot captured by [`StreamOperator::state`].
    fn restore(&mut self, state: Self::State);
    /// Feeds a snapshot into a checkpoint digest.
    fn write_state(state: &Self::State, h: &mut Xxh64);
}

/// Per-window accumulator (sum / count / max of the value).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct WindowAcc {
    sum: u64,
    count: u64,
    max: u64,
}

impl WindowAcc {
    fn fold(&mut self, v: u64) {
        self.sum = self.sum.wrapping_add(v);
        self.count += 1;
        self.max = self.max.max(v);
    }

    fn merge(&mut self, other: &WindowAcc) {
        self.sum = self.sum.wrapping_add(other.sum);
        self.count += other.count;
        self.max = self.max.max(other.max);
    }
}

/// An open window: its end tick and running aggregate.
#[derive(Debug, Clone, Copy)]
struct OpenWindow {
    end: u64,
    acc: WindowAcc,
}

/// Keyed windowed aggregation: extracts `(key, value)` pairs from events
/// via a plain function pointer (so state stays `Clone + Send` without
/// boxing), assigns them to windows, and emits [`WindowResult`]s as the
/// watermark passes window ends. Events that don't carry a pair (the
/// extractor returns `None`) pass through unaggregated — e.g. persons
/// and auctions in a bids-only query.
pub struct WindowedAggregate<In> {
    assigner: WindowAssigner,
    extract: fn(&In) -> Option<(u64, u64)>,
    /// Open windows keyed `(key, start)` — BTreeMap so snapshots and
    /// emission order are canonical.
    windows: BTreeMap<(u64, u64), OpenWindow>,
}

impl<In> WindowedAggregate<In> {
    /// Builds an aggregate over `assigner` with the given extractor.
    pub fn new(assigner: WindowAssigner, extract: fn(&In) -> Option<(u64, u64)>) -> Self {
        Self {
            assigner,
            extract,
            windows: BTreeMap::new(),
        }
    }

    /// Number of currently open windows (test / introspection hook).
    pub fn open_windows(&self) -> usize {
        self.windows.len()
    }

    fn fold_session(&mut self, key: u64, t: u64, v: u64) {
        let gap = match self.assigner {
            WindowAssigner::Session { gap } => gap.max(1),
            _ => unreachable!("fold_session on non-session assigner"),
        };
        let (mut start, mut end) = (t, t + gap);
        let mut acc = WindowAcc::default();
        acc.fold(v);
        // Absorb every window of this key that overlaps or touches the
        // proto-window. Candidates all live under the (key, _) prefix.
        let hits: Vec<(u64, u64)> = self
            .windows
            .range((key, 0)..=(key, u64::MAX))
            .filter(|(&(_, s), w)| s <= end && w.end >= start)
            .map(|(&k, _)| k)
            .collect();
        for k in hits {
            if let Some(w) = self.windows.remove(&k) {
                start = start.min(k.1);
                end = end.max(w.end);
                acc.merge(&w.acc);
            }
        }
        self.windows.insert((key, start), OpenWindow { end, acc });
    }
}

impl<In: Clone + Send + 'static> StreamOperator for WindowedAggregate<In> {
    type In = In;
    type Out = WindowResult;
    /// Flattened `(key, start, end, sum, count, max)` rows, sorted by
    /// `(key, start)` — canonical, digest-friendly.
    type State = Vec<[u64; 6]>;

    fn on_event(&mut self, event: &StreamEvent<In>, _out: &mut Vec<WindowResult>) {
        let Some((key, value)) = (self.extract)(&event.payload) else {
            return;
        };
        if self.assigner.merging() {
            self.fold_session(key, event.time, value);
            return;
        }
        let windows = &mut self.windows;
        self.assigner.for_each_window(event.time, |start, end| {
            let w = windows.entry((key, start)).or_insert(OpenWindow {
                end,
                acc: WindowAcc::default(),
            });
            debug_assert_eq!(w.end, end, "window ({key},{start}) changed its end");
            w.acc.fold(value);
        });
    }

    /// Batch fold: the slab is flattened into dense slot ids (one slot per
    /// distinct `(key, window)` this slab touches) plus flat value
    /// columns, summed through [`flowmark_columnar::kernels::hash_agg_u64`],
    /// and folded into the open-window tree once per distinct window — the
    /// per-event `assign()` allocation and per-event tree probe both
    /// disappear. Wrapping sum / count / max are order-insensitive, so the
    /// resulting state is identical to the event-at-a-time loop. Merging
    /// (session) assigners keep the default per-event path.
    fn on_batch(&mut self, events: &[StreamEvent<In>], out: &mut Vec<WindowResult>) {
        // Small slabs (frequent watermarks or barriers force flushes well
        // below the configured slab size) don't amortise the dictionary +
        // column allocations below; the per-event fold is cheaper there.
        const MIN_COLUMNAR_SLAB: usize = 32;
        if self.assigner.merging() || events.len() < MIN_COLUMNAR_SLAB {
            for ev in events {
                self.on_event(ev, out);
            }
            return;
        }
        // Pass 1: dictionary-encode (key, start) into dense slot ids.
        let mut dict: FxHashMap<(u64, u64), u64> = fx_map_with_capacity(events.len());
        let mut slot_windows: Vec<(u64, u64, u64)> = Vec::new();
        let mut slots: Vec<u64> = Vec::with_capacity(events.len());
        let mut vals: Vec<u64> = Vec::with_capacity(events.len());
        for ev in events {
            let Some((key, value)) = (self.extract)(&ev.payload) else {
                continue;
            };
            let windows = &mut slot_windows;
            self.assigner.for_each_window(ev.time, |start, end| {
                let slot = *dict.entry((key, start)).or_insert_with(|| {
                    windows.push((key, start, end));
                    windows.len() as u64 - 1
                });
                slots.push(slot);
                vals.push(value);
            });
        }
        if slots.is_empty() {
            return;
        }
        // Pass 2: sum via the shared hash-agg kernel over the flat
        // columns; count and max fold over dense slot-indexed arrays.
        let mut sums: FxHashMap<u64, u64> = fx_map_with_capacity(slot_windows.len());
        kernels::hash_agg_u64(&slots, &vals, None, None, &mut sums, |a, v| {
            *a = a.wrapping_add(v)
        });
        let mut counts = vec![0u64; slot_windows.len()];
        let mut maxs = vec![0u64; slot_windows.len()];
        for (i, &s) in slots.iter().enumerate() {
            counts[s as usize] += 1;
            maxs[s as usize] = maxs[s as usize].max(vals[i]);
        }
        // Pass 3: one tree probe per distinct window touched by the slab.
        for (slot, &(key, start, end)) in slot_windows.iter().enumerate() {
            let w = self.windows.entry((key, start)).or_insert(OpenWindow {
                end,
                acc: WindowAcc::default(),
            });
            debug_assert_eq!(w.end, end, "window ({key},{start}) changed its end");
            w.acc.sum = w.acc.sum.wrapping_add(sums[&(slot as u64)]);
            w.acc.count += counts[slot];
            w.acc.max = w.acc.max.max(maxs[slot]);
        }
    }

    fn on_watermark(&mut self, watermark: u64, out: &mut Vec<WindowResult>) {
        // A window fires when the watermark passes its end. One ordered
        // `retain` pass (ascending `(key, start)`, so emission order is
        // canonical) pushes and drops every ripe window in place.
        self.windows.retain(|&(key, start), w| {
            if w.end > watermark {
                return true;
            }
            out.push(WindowResult {
                key,
                start,
                end: w.end,
                sum: w.acc.sum,
                count: w.acc.count,
                max: w.acc.max,
            });
            false
        });
    }

    fn state(&self) -> Self::State {
        self.windows
            .iter()
            .map(|(&(key, start), w)| [key, start, w.end, w.acc.sum, w.acc.count, w.acc.max])
            .collect()
    }

    fn restore(&mut self, state: Self::State) {
        self.windows = state
            .into_iter()
            .map(|[key, start, end, sum, count, max]| {
                (
                    (key, start),
                    OpenWindow {
                        end,
                        acc: WindowAcc { sum, count, max },
                    },
                )
            })
            .collect();
    }

    fn write_state(state: &Self::State, h: &mut Xxh64) {
        h.write_u64(state.len() as u64);
        for row in state {
            h.write_u64s(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(e: &(u64, u64)) -> Option<(u64, u64)> {
        Some(*e)
    }

    fn feed(op: &mut WindowedAggregate<(u64, u64)>, events: &[(u64, u64, u64)]) {
        let mut out = Vec::new();
        for &(t, k, v) in events {
            op.on_event(&StreamEvent::new(t, (k, v)), &mut out);
        }
        assert!(out.is_empty(), "windowed aggregate has no immediate outputs");
    }

    #[test]
    fn tumbling_assigns_exactly_one_window() {
        let a = WindowAssigner::Tumbling { size: 10 };
        assert_eq!(a.assign(0), vec![(0, 10)]);
        assert_eq!(a.assign(9), vec![(0, 10)]);
        assert_eq!(a.assign(10), vec![(10, 20)]);
    }

    #[test]
    fn sliding_assigns_overlapping_windows() {
        let a = WindowAssigner::Sliding { size: 10, slide: 5 };
        // t = 7 lives in [0,10) and [5,15).
        assert_eq!(a.assign(7), vec![(0, 10), (5, 15)]);
        // t = 3 lives only in [0,10) (window [-5,5) does not exist).
        assert_eq!(a.assign(3), vec![(0, 10)]);
    }

    #[test]
    fn tumbling_aggregate_fires_on_watermark() {
        let mut op = WindowedAggregate::new(WindowAssigner::Tumbling { size: 10 }, kv);
        feed(&mut op, &[(1, 7, 5), (3, 7, 2), (12, 7, 9)]);
        let mut out = Vec::new();
        op.on_watermark(10, &mut out);
        assert_eq!(
            out,
            vec![WindowResult {
                key: 7,
                start: 0,
                end: 10,
                sum: 7,
                count: 2,
                max: 5
            }]
        );
        assert_eq!(op.open_windows(), 1);
        out.clear();
        op.on_watermark(u64::MAX, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].sum, 9);
    }

    #[test]
    fn session_windows_merge_across_the_gap() {
        let mut op = WindowedAggregate::new(WindowAssigner::Session { gap: 5 }, kv);
        // 1 and 4 chain into one session; 20 opens another.
        feed(&mut op, &[(1, 1, 10), (20, 1, 30), (4, 1, 20)]);
        let state = op.state();
        assert_eq!(state.len(), 2);
        assert_eq!(state[0], [1, 1, 9, 30, 2, 20]); // [1, 4+5)
        assert_eq!(state[1], [1, 20, 25, 30, 1, 30]);
    }

    #[test]
    fn session_merge_bridges_two_existing_sessions() {
        let mut op = WindowedAggregate::new(WindowAssigner::Session { gap: 3 }, kv);
        // 7 chains to 10 ([7,13)), 4 touches 7 ([4,13)), but 0 stays its
        // own session ([0,3)) — until 3 arrives last, touches both sides
        // and bridges everything into one session.
        feed(&mut op, &[(0, 9, 1), (10, 9, 1), (7, 9, 1), (4, 9, 1)]);
        assert_eq!(op.open_windows(), 2);
        feed(&mut op, &[(3, 9, 1)]);
        assert_eq!(op.open_windows(), 1);
        assert_eq!(op.state()[0], [9, 0, 13, 5, 5, 1]);
    }

    #[test]
    fn batch_fold_matches_per_event_fold_under_any_slab_split() {
        let events: Vec<StreamEvent<(u64, u64)>> = (0..60u64)
            .map(|i| StreamEvent::new((i * 7) % 40, (i % 3, i.wrapping_mul(0x9E37))))
            .collect();
        for assigner in [
            WindowAssigner::Tumbling { size: 10 },
            WindowAssigner::Sliding { size: 12, slide: 4 },
            WindowAssigner::Session { gap: 3 },
        ] {
            let mut by_event = WindowedAggregate::new(assigner, kv);
            let mut out = Vec::new();
            for ev in &events {
                by_event.on_event(ev, &mut out);
            }
            for split in [1usize, 7, 17, 60] {
                let mut by_batch = WindowedAggregate::new(assigner, kv);
                for slab in events.chunks(split) {
                    by_batch.on_batch(slab, &mut out);
                }
                assert_eq!(
                    by_batch.state(),
                    by_event.state(),
                    "{assigner:?} diverged at slab size {split}"
                );
            }
            assert!(out.is_empty(), "no immediate outputs expected");
        }
    }

    #[test]
    fn on_watermark_fires_exactly_the_ripe_windows_in_key_order() {
        let events: Vec<StreamEvent<(u64, u64)>> = (0..80u64)
            .map(|i| StreamEvent::new((i * 11) % 53, (i % 4, i * 3 + 1)))
            .collect();
        for assigner in [
            WindowAssigner::Tumbling { size: 10 },
            WindowAssigner::Sliding { size: 12, slide: 4 },
            WindowAssigner::Session { gap: 3 },
        ] {
            let mut op = WindowedAggregate::new(assigner, kv);
            let mut out = Vec::new();
            op.on_batch(&events, &mut out);
            assert!(out.is_empty());
            for wm in [0, 9, 10, 24, 25, 40, u64::MAX] {
                let (ripe, unripe): (Vec<[u64; 6]>, Vec<[u64; 6]>) =
                    op.state().into_iter().partition(|row| row[2] <= wm);
                op.on_watermark(wm, &mut out);
                let fired: Vec<[u64; 6]> = out
                    .drain(..)
                    .map(|w| [w.key, w.start, w.end, w.sum, w.count, w.max])
                    .collect();
                assert_eq!(fired, ripe, "{assigner:?} at watermark {wm}");
                assert!(
                    fired.windows(2).all(|p| (p[0][0], p[0][1]) < (p[1][0], p[1][1])),
                    "{assigner:?} fired out of (key, start) order at {wm}"
                );
                assert_eq!(op.state(), unripe, "{assigner:?} kept the wrong windows at {wm}");
            }
            assert_eq!(op.open_windows(), 0);
        }
    }

    #[test]
    fn snapshot_round_trips_and_digests_stably() {
        let mut op = WindowedAggregate::new(WindowAssigner::Sliding { size: 8, slide: 4 }, kv);
        feed(&mut op, &[(1, 2, 3), (6, 2, 4), (9, 5, 1)]);
        let state = op.state();
        let mut h1 = Xxh64::new(7);
        WindowedAggregate::<(u64, u64)>::write_state(&state, &mut h1);
        let d1 = h1.finish();

        let mut restored = WindowedAggregate::new(WindowAssigner::Sliding { size: 8, slide: 4 }, kv);
        restored.restore(state.clone());
        let mut h2 = Xxh64::new(7);
        WindowedAggregate::<(u64, u64)>::write_state(&restored.state(), &mut h2);
        assert_eq!(d1, h2.finish());

        // Firing order after restore matches the original.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        op.on_watermark(u64::MAX, &mut a);
        restored.on_watermark(u64::MAX, &mut b);
        assert_eq!(a, b);
    }
}
