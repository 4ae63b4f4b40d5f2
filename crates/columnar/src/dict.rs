//! A word dictionary: string keys counted in one open-addressing table over
//! a byte arena, with no per-key heap object.
//!
//! The table's slots hold `u32` entry ids; an entry holds the word's hash,
//! its count and its bytes — inline for words of up to 16 bytes, as an
//! arena range for longer ones. A word is hashed once: the hash picks the
//! probe start (its high bits), is compared before any key byte, re-places
//! the entry when the table grows, and routes the word to its reducer (its
//! value modulo the reducer count, exactly what FxHash-partitioning a `str`
//! gives) — so nothing downstream of [`WordDict::add`] hashes the word again.

use crate::kvbatch::StrU64Batch;

/// Words of at most this many bytes live inside their entry.
const INLINE: usize = 16;

/// The FxHash multiplier (Firefox / rustc's FxHash).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Marks an empty slot.
const EMPTY: u32 = u32::MAX;

/// Slots a fresh dictionary starts with.
const MIN_SLOTS: usize = 1024;

#[inline]
fn mix(state: u64, word: u64) -> u64 {
    (state.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// Up to 8 bytes as a zero-padded little-endian word, without a `memcpy`:
/// two overlapping loads cover any length from 4 to 8, three byte loads
/// any length from 1 to 3.
#[inline]
fn load_le(b: &[u8]) -> u64 {
    let n = b.len();
    debug_assert!(n <= 8);
    if n >= 4 {
        let lo = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as u64;
        let hi = u32::from_le_bytes([b[n - 4], b[n - 3], b[n - 2], b[n - 1]]) as u64;
        lo | hi << ((n - 4) * 8)
    } else if n > 0 {
        b[0] as u64 | (b[n / 2] as u64) << (n / 2 * 8) | (b[n - 1] as u64) << ((n - 1) * 8)
    } else {
        0
    }
}

/// A word of at most [`INLINE`] bytes as two zero-padded little-endian
/// words.
#[inline]
fn halves(b: &[u8]) -> (u64, u64) {
    if b.len() <= 8 {
        (load_le(b), 0)
    } else {
        (load_le(&b[..8]), load_le(&b[8..]))
    }
}

/// [`word_hash`] of a word of `len <= INLINE` bytes from its [`halves`].
#[inline]
fn short_hash(len: usize, lo: u64, hi: u64) -> u64 {
    let tagged = |w: u64, n: usize| w | (n as u64) << 56;
    let h = match len {
        0 => 0,
        1..=7 => mix(0, tagged(lo, len)),
        8 => mix(0, lo),
        9..=15 => mix(mix(0, lo), tagged(hi, len - 8)),
        _ => mix(mix(0, lo), hi),
    };
    mix(h, 0xff)
}

/// The hash `flowmark_engine::hash::FxHasher64` gives a `str`: the bytes in
/// 8-byte little-endian words, then the tail padded with a length tag in
/// its top byte, then the `0xff` terminator `Hash for str` writes. The
/// engines route string keys with that hasher and this crate depends on
/// none of them, so it carries its own copy; a test in `flowmark-engine`
/// pins the two together.
pub fn word_hash(word: &str) -> u64 {
    let mut chunks = word.as_bytes().chunks_exact(8);
    let mut h = 0u64;
    for chunk in &mut chunks {
        h = mix(h, load_le(chunk));
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        h = mix(h, load_le(tail) | (tail.len() as u64) << 56);
    }
    mix(h, 0xff)
}

/// One distinct word.
#[derive(Debug, Clone, Copy)]
struct Entry {
    hash: u64,
    count: u64,
    len: u32,
    /// Arena offset of a word longer than [`INLINE`] bytes.
    off: u32,
    inline: [u8; INLINE],
}

/// Word → count, in first-seen order.
#[derive(Debug, Clone)]
pub struct WordDict {
    /// Entry ids by probe position; a power-of-two length, at most half full.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a hash's high bits are its probe start.
    shift: u32,
    entries: Vec<Entry>,
    /// The bytes of every word longer than [`INLINE`].
    arena: Vec<u8>,
}

impl Default for WordDict {
    fn default() -> Self {
        Self::new()
    }
}

impl WordDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self {
            slots: vec![EMPTY; MIN_SLOTS],
            shift: 64 - MIN_SLOTS.trailing_zeros(),
            entries: Vec::with_capacity(MIN_SLOTS / 2),
            arena: Vec::new(),
        }
    }

    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no word was counted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counts one occurrence of `word`.
    #[inline]
    pub fn add(&mut self, word: &str) {
        let b = word.as_bytes();
        if b.len() <= INLINE {
            // A short word is compared as its two padded halves, which the
            // hash has just read.
            let (lo, hi) = halves(b);
            let mut inline = [0u8; INLINE];
            inline[..8].copy_from_slice(&lo.to_le_bytes());
            inline[8..].copy_from_slice(&hi.to_le_bytes());
            self.bump(word, short_hash(b.len(), lo, hi), |e, _| {
                e.len as usize == b.len() && e.inline == inline
            });
        } else {
            self.bump(word, word_hash(word), |e, arena| key(e, arena) == b);
        }
    }

    /// Probes for the entry of `word`, whose hash is `hash`, and counts one
    /// more of it; `same` compares an entry's key with the word.
    #[inline]
    fn bump(&mut self, word: &str, hash: u64, same: impl Fn(&Entry, &[u8]) -> bool) {
        let mask = self.slots.len() - 1;
        let mut slot = (hash >> self.shift) as usize;
        loop {
            let id = self.slots[slot];
            if id == EMPTY {
                self.insert(slot, word, hash);
                return;
            }
            let e = &mut self.entries[id as usize];
            if e.hash == hash && same(e, &self.arena) {
                e.count += 1;
                return;
            }
            slot = (slot + 1) & mask;
        }
    }

    #[cold]
    fn insert(&mut self, slot: usize, word: &str, hash: u64) {
        let id = u32::try_from(self.entries.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("WordDict holds fewer than u32::MAX words");
        let bytes = word.as_bytes();
        let mut e = Entry {
            hash,
            count: 1,
            len: u32::try_from(bytes.len()).expect("word shorter than 4 GiB"),
            off: 0,
            inline: [0; INLINE],
        };
        if bytes.len() <= INLINE {
            e.inline[..bytes.len()].copy_from_slice(bytes);
        } else {
            e.off = u32::try_from(self.arena.len()).expect("WordDict arena overflows u32 offsets");
            self.arena.extend_from_slice(bytes);
        }
        self.entries.push(e);
        self.slots[slot] = id;
        if self.entries.len() * 2 > self.slots.len() {
            self.grow();
        }
    }

    /// Doubles the slots and re-places every entry by its stored hash.
    fn grow(&mut self) {
        self.slots = vec![EMPTY; self.slots.len() * 2];
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for (id, e) in self.entries.iter().enumerate() {
            let mut slot = (e.hash >> self.shift) as usize;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32;
        }
    }

    /// Every `(word, count)`, in first-seen order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.entries.iter().map(|e| (self.word(e), e.count))
    }

    fn word<'a>(&'a self, e: &'a Entry) -> &'a str {
        // SAFETY: an entry's bytes are copied whole from the `&str` that
        // `add` inserted, so they are valid UTF-8.
        unsafe { std::str::from_utf8_unchecked(key(e, &self.arena)) }
    }

    /// The counts as `parts` per-reducer batches: word `w` goes to batch
    /// `word_hash(w) % parts`, in first-seen order. A counting pass sizes
    /// every batch exactly (rows and key bytes), then the placement pass
    /// copies each word straight from its entry or the arena.
    pub fn route(&self, parts: usize) -> Vec<StrU64Batch> {
        assert!(parts > 0);
        let part_of = |e: &Entry| (e.hash as usize) % parts;
        let mut rows = vec![0usize; parts];
        let mut bytes = vec![0usize; parts];
        for e in &self.entries {
            let p = part_of(e);
            rows[p] += 1;
            bytes[p] += e.len as usize;
        }
        let mut out: Vec<StrU64Batch> = rows
            .iter()
            .zip(&bytes)
            .map(|(&r, &b)| StrU64Batch::with_capacity(r, b))
            .collect();
        for e in &self.entries {
            out[part_of(e)].push(self.word(e), e.count);
        }
        out
    }
}

#[inline]
fn key<'a>(e: &'a Entry, arena: &'a [u8]) -> &'a [u8] {
    let len = e.len as usize;
    if len <= INLINE {
        &e.inline[..len]
    } else {
        &arena[e.off as usize..e.off as usize + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_hash_equals_word_hash_at_every_inline_length() {
        for w in ["a\0cdefghijklmnopq", "naïve café!"]
            .iter()
            .flat_map(|t| (0..=INLINE).filter_map(|n| t.get(..n)))
        {
            let (lo, hi) = halves(w.as_bytes());
            assert_eq!(short_hash(w.len(), lo, hi), word_hash(w), "{w:?}");
        }
        assert_ne!(word_hash("a\0"), word_hash("a"));
    }

    #[test]
    fn counts_inline_and_arena_words_in_first_seen_order() {
        let long = "a-word-longer-than-the-inline-width";
        let mut d = WordDict::new();
        for w in ["b", long, "a", "b", long, "b"] {
            d.add(w);
        }
        assert_eq!(d.len(), 3);
        assert_eq!(
            d.iter().collect::<Vec<_>>(),
            vec![("b", 3), (long, 2), ("a", 1)]
        );
    }

    #[test]
    fn growth_keeps_every_count() {
        let mut d = WordDict::new();
        for round in 0..3 {
            for i in 0..5_000 {
                d.add(&format!("w{i}"));
            }
            assert_eq!(d.len(), 5_000, "round {round}");
        }
        assert!(d.slots.len() >= 2 * d.len());
        assert!(d.iter().all(|(_, c)| c == 3));
    }

    #[test]
    fn route_partitions_by_the_stored_hash() {
        let mut d = WordDict::new();
        for i in 0..300 {
            d.add(&format!("key{i}"));
        }
        let parts = d.route(4);
        assert_eq!(parts.iter().map(StrU64Batch::len).sum::<usize>(), 300);
        for (p, b) in parts.iter().enumerate() {
            assert!(b
                .iter()
                .all(|(w, c)| (word_hash(w) as usize) % 4 == p && c == 1));
        }
    }
}
