//! Dense vertex-message tables and the batches that carry them across a
//! shuffle.
//!
//! A superstep's messages are addressed by dense vertex slot, so folding
//! one in is an array write, not a hash probe: a [`MessageTable`] keeps one
//! 64-bit lane per slot plus a presence bitmap, and `fold` merges a message
//! into its slot with the program's combiner (`+` for Page Rank, `min` for
//! CC/SSSP). The same table is the sender-side combiner (an [`Outbox`] with
//! one slot per destination vertex of the whole graph), the receive-side
//! merge (one slot per vertex of the range) and, on the pipelined engine, an
//! iteration worker's inbox, whose presence bitmap is the delta workset.
//!
//! A table range leaves its task as a [`MessageBatch`] — plain `u64` lanes,
//! sealed and verified like every other exchange unit. The encoding follows
//! the fill count: a well-filled range ships dense (`slots` value lanes then
//! `slots / 64` presence words), a thin frontier ships sparse
//! (`slot, value` pairs). Both decode from the lane count alone, because a
//! sparse batch is only chosen when it is shorter than `slots`.

use std::marker::PhantomData;
use std::ops::Range;

use flowmark_columnar::checksum::Xxh64;
use flowmark_columnar::{Checksummable, CorruptionKind};

use crate::shuffle::ShuffleBatch;

/// A message that travels as one 64-bit lane.
pub trait Lane: Copy + Send + Sync + 'static {
    /// The lane encoding of `self`.
    fn to_bits(self) -> u64;
    /// Decodes a lane written by [`Lane::to_bits`].
    fn from_bits(bits: u64) -> Self;
}

impl Lane for u64 {
    fn to_bits(self) -> u64 {
        self
    }
    fn from_bits(bits: u64) -> Self {
        bits
    }
}

impl Lane for f64 {
    fn to_bits(self) -> u64 {
        f64::to_bits(self)
    }
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

/// The slot count a table needs to give each of `partitions` ranges
/// `vertices / partitions` slots, rounded up to whole presence words so
/// that ranges never share a word.
pub fn slots_per_partition(vertices: usize, partitions: usize) -> usize {
    vertices.div_ceil(partitions).next_multiple_of(64).max(64)
}

/// At most one message of type `M` per dense slot.
#[derive(Debug, Clone)]
pub struct MessageTable<M> {
    lanes: Vec<u64>,
    present: Vec<u64>,
    _message: PhantomData<M>,
}

impl<M: Lane> MessageTable<M> {
    /// An empty table of `slots` slots (a multiple of 64).
    pub fn new(slots: usize) -> Self {
        assert!(
            slots.is_multiple_of(64),
            "slots must fill whole presence words"
        );
        Self {
            lanes: vec![0; slots],
            present: vec![0; slots / 64],
            _message: PhantomData,
        }
    }

    /// Delivers `m` to `slot`, merging with the message already there.
    #[inline]
    pub fn fold(&mut self, slot: usize, m: M, merge: &impl Fn(M, M) -> M) {
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        let lane = &mut self.lanes[slot];
        if self.present[word] & bit == 0 {
            self.present[word] |= bit;
            *lane = m.to_bits();
        } else {
            *lane = merge(M::from_bits(*lane), m).to_bits();
        }
    }

    /// The message at `slot`, if one was delivered.
    pub fn get(&self, slot: usize) -> Option<M> {
        (self.present[slot / 64] >> (slot % 64) & 1 == 1).then(|| M::from_bits(self.lanes[slot]))
    }

    /// Calls `f(slot, message)` for every message held, slots ascending.
    pub fn for_each(&self, mut f: impl FnMut(usize, M)) {
        for_each_set_bit(&self.present, |s| f(s, M::from_bits(self.lanes[s])));
    }

    /// Empties the table for reuse; only the presence words are rewritten.
    pub fn clear(&mut self) {
        self.present.fill(0);
    }

    /// Messages held.
    pub fn count(&self) -> usize {
        popcount(&self.present)
    }

    /// Encodes the messages of `slots` (a word-aligned range) for the
    /// shuffle, slots renumbered from the range start; `None` when the
    /// range holds no message.
    pub fn encode(&self, slots: Range<usize>) -> Option<MessageBatch> {
        let present = &self.present[slots.start / 64..slots.end / 64];
        let messages = popcount(present);
        if messages == 0 {
            return None;
        }
        let lanes = if 2 * messages < slots.len() {
            let mut pairs = Vec::with_capacity(2 * messages);
            for_each_set_bit(present, |slot| {
                pairs.extend([slot as u64, self.lanes[slots.start + slot]]);
            });
            pairs
        } else {
            [&self.lanes[slots], present].concat()
        };
        Some(MessageBatch { lanes, messages })
    }

    /// Merges every message of `batch`, encoded over a range as long as
    /// this table, into the table.
    pub fn absorb(&mut self, batch: &MessageBatch, merge: &impl Fn(M, M) -> M) {
        let slots = self.lanes.len();
        if batch.lanes.len() == slots + slots / 64 {
            let (lanes, present) = batch.lanes.split_at(slots);
            for_each_set_bit(present, |slot| {
                self.fold(slot, M::from_bits(lanes[slot]), merge)
            });
        } else {
            for pair in batch.lanes.chunks_exact(2) {
                self.fold(pair[0] as usize, M::from_bits(pair[1]), merge);
            }
        }
    }

    /// Re-assembles one table from the [`MessageTable::into_dense`] batches
    /// of consecutive slot ranges.
    pub fn from_dense_ranges(batches: &[MessageBatch]) -> Self {
        let mut table = Self::new(0);
        for batch in batches {
            // Dense: `slots` value lanes then `slots / 64` presence words.
            let slots = batch.lanes.len() / 65 * 64;
            table.lanes.extend_from_slice(&batch.lanes[..slots]);
            table.present.extend_from_slice(&batch.lanes[slots..]);
        }
        table
    }

    /// The whole table as one dense batch, whatever its fill.
    pub fn into_dense(mut self) -> MessageBatch {
        let messages = self.count();
        self.lanes.extend_from_slice(&self.present);
        MessageBatch {
            lanes: self.lanes,
            messages,
        }
    }
}

/// A sender's combining outbox: every message sent is folded into the
/// destination's slot right away, so what the task ships is already
/// combined. A staged map task builds one per wave; a pipelined iteration
/// worker keeps one and clears it between supersteps.
pub struct Outbox<'a, M, F> {
    table: MessageTable<M>,
    merge: &'a F,
    sent: usize,
}

impl<'a, M: Lane, F: Fn(M, M) -> M> Outbox<'a, M, F> {
    /// An empty outbox over `slots` destination slots.
    pub fn new(slots: usize, merge: &'a F) -> Self {
        Self {
            table: MessageTable::new(slots),
            merge,
            sent: 0,
        }
    }

    /// Sends `m` to dense vertex `dst`.
    #[inline]
    pub fn to(&mut self, dst: u32, m: M) {
        self.sent += 1;
        self.table.fold(dst as usize, m, self.merge);
    }

    /// Sends since the outbox was created or last cleared; what exceeds the
    /// table's count is what combining eliminated.
    pub fn sent(&self) -> usize {
        self.sent
    }

    /// The combined messages so far.
    pub fn table(&self) -> &MessageTable<M> {
        &self.table
    }

    /// Empties the outbox for the next superstep, keeping its table.
    pub fn clear(&mut self) {
        self.sent = 0;
        self.table.clear();
    }
}

fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// The messages one task sends to one destination partition: the unit both
/// engines' exchanges seal, move and verify. Accounts as `messages` rows,
/// so `records_shuffled` keeps counting combined messages, not lanes. The
/// default batch carries none.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MessageBatch {
    lanes: Vec<u64>,
    messages: usize,
}

impl ShuffleBatch for MessageBatch {
    fn rows(&self) -> usize {
        self.messages
    }
    fn bytes(&self) -> usize {
        self.lanes.len() * std::mem::size_of::<u64>()
    }
}

impl Checksummable for MessageBatch {
    fn write_checksum(&self, h: &mut Xxh64) {
        h.write_u64(self.messages as u64);
        h.write_u64s(&self.lanes);
    }

    fn corrupt(&mut self, kind: CorruptionKind, salt: u64) -> Option<CorruptionKind> {
        self.lanes.corrupt(kind, salt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(slots: usize, msgs: &[(usize, u64)]) -> MessageTable<u64> {
        let mut t = MessageTable::new(slots);
        for &(slot, m) in msgs {
            t.fold(slot, m, &u64::min);
        }
        t
    }

    #[test]
    fn fold_merges_per_slot_and_get_reports_presence() {
        let t = table(128, &[(3, 9), (3, 4), (3, 7), (127, 0)]);
        assert_eq!(t.get(3), Some(4));
        assert_eq!(t.get(127), Some(0), "a zero message is still a message");
        assert_eq!(t.get(4), None);
        assert_eq!(t.count(), 2);
        let mut sums: MessageTable<f64> = MessageTable::new(64);
        for x in [0.5, 0.25, 0.125] {
            sums.fold(1, x, &|a, b| a + b);
        }
        assert_eq!(sums.get(1), Some(0.875));
    }

    #[test]
    fn a_cleared_table_and_outbox_start_the_next_superstep_empty() {
        let mut t = table(128, &[(3, 9), (64, 1), (127, 0)]);
        let mut seen = Vec::new();
        t.for_each(|slot, m| seen.push((slot, m)));
        assert_eq!(seen, vec![(3, 9), (64, 1), (127, 0)], "slots ascending");
        t.clear();
        assert_eq!((t.count(), t.get(3)), (0, None));
        t.fold(3, 5, &u64::min);
        assert_eq!(t.get(3), Some(5), "a stale lane is not merged into");

        let mut out = Outbox::new(64, &u64::min);
        out.to(7, 4);
        out.to(7, 2);
        assert_eq!((out.sent(), out.table().get(7)), (2, Some(2)));
        out.clear();
        assert_eq!((out.sent(), out.table().count()), (0, 0));
        assert_eq!(
            out.table().encode(0..64).unwrap_or_default().rows(),
            0,
            "an empty range ships as the default batch"
        );
    }

    #[test]
    fn encoding_follows_the_fill_count_and_round_trips() {
        // Range 64..192 of a 256-slot table: thin → sparse pairs, renumbered.
        let thin = table(256, &[(70, 5), (191, 6), (10, 1)]);
        let batch = thin.encode(64..192).unwrap();
        assert_eq!((batch.rows(), batch.bytes()), (2, 4 * 8));
        let mut back: MessageTable<u64> = MessageTable::new(128);
        back.absorb(&batch, &u64::min);
        assert_eq!(
            (back.get(6), back.get(127), back.count()),
            (Some(5), Some(6), 2)
        );
        assert!(
            thin.encode(192..256).is_none(),
            "an empty range ships nothing"
        );

        // Half full or more → dense lanes plus presence words.
        let full: Vec<(usize, u64)> = (64..192).step_by(2).map(|s| (s, s as u64)).collect();
        let dense = table(256, &full).encode(64..192).unwrap();
        assert_eq!((dense.rows(), dense.bytes()), (64, (128 + 2) * 8));
        let mut back: MessageTable<u64> = MessageTable::new(128);
        back.absorb(&batch, &u64::min);
        back.absorb(&dense, &u64::min);
        assert_eq!(back.get(6), Some(5), "sparse 5 beats dense 70 under min");
        assert_eq!(back.get(8), Some(72));
        assert_eq!(back.count(), 65);

        // The reduce output re-assembles on the driver, range after range.
        let all: MessageTable<u64> =
            MessageTable::from_dense_ranges(&[back.clone().into_dense(), back.into_dense()]);
        assert_eq!(
            (all.get(8), all.get(128 + 8), all.count()),
            (Some(72), Some(72), 130)
        );
    }

    #[test]
    fn a_damaged_batch_fails_its_digest() {
        let batch = table(64, &[(1, 2), (3, 4)]).encode(0..64).unwrap();
        let digest = batch.checksum(7);
        for kind in [CorruptionKind::BitFlip, CorruptionKind::Truncate] {
            let mut bad = batch.clone();
            assert!(bad.corrupt(kind, 0xBEEF).is_some());
            assert_ne!(bad.checksum(7), digest, "{kind} went unnoticed");
        }
    }
}
