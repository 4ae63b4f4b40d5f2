//! Hot-path hashing: a fast, deterministic hasher and pre-sized map
//! constructors for the shuffle/aggregation data plane.
//!
//! `std::collections::HashMap`'s default SipHash is DoS-resistant but slow
//! for the short keys (words, numeric ids, 10-byte sort keys) that cross
//! the shuffle, and `HashMap::new()` starts at capacity 0 so a reduce task
//! rehashes log(n) times while folding its input. Every per-record map in
//! the engines goes through this module instead: an FxHash-style
//! multiply-xor hasher (the same scheme
//! [`flowmark_dataflow::partitioner::FxHasher64`] uses for partition
//! assignment) plus constructors that pre-size to the number of records a
//! task is about to fold.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash multiplier (from Firefox / rustc's FxHash).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic 64-bit multiply-xor hasher for hot-path maps.
///
/// Not DoS-resistant — fine here because every key set is produced by our
/// own generators/workloads, never by an adversary.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher64 {
    state: u64,
}

impl FxHasher64 {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Consume 8-byte words, then the tail — far fewer multiplies than
        // the byte-at-a-time loop for string keys.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            // Length tag keeps "a\0" and "a" from colliding trivially.
            word[7] = tail.len() as u8;
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher64`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher64>;

/// A `HashMap` keyed by [`FxHasher64`] — the only map type the engines'
/// per-record paths are allowed to build.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// An empty [`FxHashMap`]; prefer [`fx_map_with_capacity`] when the record
/// count is known.
pub fn fx_map<K, V>() -> FxHashMap<K, V> {
    FxHashMap::default()
}

/// An [`FxHashMap`] pre-sized for `capacity` entries, so a reduce task
/// folding its whole input never rehashes.
pub fn fx_map_with_capacity<K, V>(capacity: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(capacity, FxBuildHasher::default())
}

/// Per-reducer bucket vectors pre-sized to the expected fan-out
/// (`total / n + 1` records each) — the allocation pattern of
/// [`crate::shuffle::partition_records`].
pub fn sized_buckets<T>(n: usize, total: usize) -> Vec<Vec<T>> {
    let cap = total / n.max(1) + 1;
    (0..n).map(|_| Vec::with_capacity(cap)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_and_spreading() {
        assert_eq!(hash_of(&"shuffle"), hash_of(&"shuffle"));
        assert_ne!(hash_of(&"shuffle"), hash_of(&"shufflf"));
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        // Tail tagging: prefixes do not collide with padded forms.
        assert_ne!(hash_of(&[1u8, 0]), hash_of(&[1u8]));
    }

    #[test]
    fn word_keys_balance_across_buckets() {
        let n = 16;
        let mut counts = vec![0usize; n];
        for i in 0..16_000 {
            let h = hash_of(&format!("word{i}"));
            counts[(h % n as u64) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let ideal = 16_000.0 / n as f64;
        assert!(max / ideal < 1.25, "unbalanced: {counts:?}");
    }

    /// `flowmark-columnar` carries a copy of this hasher for routing words
    /// out of its dictionary; both must place every word identically.
    #[test]
    fn columnar_word_hash_is_fxhash_of_str() {
        // Every prefix: each tail length, inline and arena words alike.
        let text = "naïve café\0word000123 and a tail well past sixteen bytes";
        for w in (0..=text.len()).filter_map(|n| text.get(..n)) {
            assert_eq!(flowmark_columnar::dict::word_hash(w), hash_of(&w), "{w:?}");
        }
    }

    #[test]
    fn presized_map_never_reallocates_under_budget() {
        let mut m = fx_map_with_capacity::<u64, u64>(1000);
        let cap = m.capacity();
        for i in 0..1000 {
            m.insert(i, i);
        }
        assert_eq!(m.capacity(), cap, "pre-sized map rehashed");
    }

    #[test]
    fn sized_buckets_shape() {
        let b: Vec<Vec<u32>> = sized_buckets(4, 100);
        assert_eq!(b.len(), 4);
        assert!(b.iter().all(|v| v.capacity() >= 26));
        let empty: Vec<Vec<u32>> = sized_buckets(0, 10);
        assert!(empty.is_empty());
    }
}
