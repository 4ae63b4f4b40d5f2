//! Partitioners: hash and sampled-range (TotalOrderPartitioner-like).
//!
//! Spark's `reduceByKey` "hash-partitions the output with the number of
//! partitions (i.e. the default parallelism)" (§VI-A); TeraSort uses "the
//! same range partitioner ... based on Hadoop's TotalOrderPartitioner"
//! in both engines (§III). Both are implemented generically here and shared
//! by the real engine; the simulator uses their balance statistics.

use std::hash::{Hash, Hasher};

/// A fast, deterministic 64-bit hasher (FxHash-style multiply-xor), local so
/// partition assignment is stable across Rust releases — `DefaultHasher` is
/// explicitly not stability-guaranteed.
#[derive(Debug, Clone, Copy)]
pub struct FxHasher64 {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Default for FxHasher64 {
    fn default() -> Self {
        Self { state: 0 }
    }
}

impl Hasher for FxHasher64 {
    // `#[inline]` matters here: these non-generic methods otherwise stay
    // opaque across the crate boundary, and `fxhash` sits on the per-record
    // routing path of the hash partitioner.
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state.rotate_left(5) ^ b as u64).wrapping_mul(SEED);
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = (self.state.rotate_left(5) ^ i).wrapping_mul(SEED);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// Hashes one value with [`FxHasher64`].
#[inline]
pub fn fxhash<T: Hash>(value: &T) -> u64 {
    let mut h = FxHasher64::default();
    value.hash(&mut h);
    h.finish()
}

/// Assigns keys to partitions.
pub trait Partitioner<K: ?Sized> {
    /// Number of partitions.
    fn partitions(&self) -> usize;
    /// Partition of a key, in `0..partitions()`.
    fn partition(&self, key: &K) -> usize;
}

/// Hash partitioner over any hashable key.
#[derive(Debug, Clone, Copy)]
pub struct HashPartitioner {
    partitions: usize,
}

impl HashPartitioner {
    /// Creates a hash partitioner.
    ///
    /// # Panics
    /// Panics when `partitions == 0`.
    pub fn new(partitions: usize) -> Self {
        assert!(partitions > 0, "need at least one partition");
        Self { partitions }
    }
}

impl<K: Hash + ?Sized> Partitioner<K> for HashPartitioner {
    fn partitions(&self) -> usize {
        self.partitions
    }

    fn partition(&self, key: &K) -> usize {
        (fxhash(&key) % self.partitions as u64) as usize
    }
}

/// Range partitioner over ordered keys with explicit split points, the
/// TotalOrderPartitioner's contract: `partition(k) = #splits ≤ k`.
#[derive(Debug, Clone)]
pub struct RangePartitioner<K: Ord> {
    splits: Vec<K>,
}

impl<K: Ord> RangePartitioner<K> {
    /// Creates a range partitioner from split points (will be sorted).
    pub fn new(mut splits: Vec<K>) -> Self {
        splits.sort();
        Self { splits }
    }

    /// Builds split points by sampling: sorts the sample and takes
    /// `partitions − 1` evenly spaced quantiles.
    pub fn from_sample(mut sample: Vec<K>, partitions: usize) -> Self
    where
        K: Clone,
    {
        assert!(partitions > 0, "need at least one partition");
        sample.sort();
        if sample.is_empty() || partitions == 1 {
            return Self { splits: Vec::new() };
        }
        let mut splits = Vec::with_capacity(partitions - 1);
        for i in 1..partitions {
            let idx = (i * sample.len() / partitions).min(sample.len() - 1);
            splits.push(sample[idx].clone());
        }
        splits.dedup();
        Self { splits }
    }
}

impl<K: Ord> Partitioner<K> for RangePartitioner<K> {
    fn partitions(&self) -> usize {
        self.splits.len() + 1
    }

    fn partition(&self, key: &K) -> usize {
        self.splits.partition_point(|s| s <= key)
    }
}

/// Measures partition balance: the ratio of the largest partition to the
/// ideal (`total / partitions`). 1.0 is perfectly balanced; the paper's
/// skew-related slowdowns ("more files to handle ... inefficient resource
/// usage", §VI-E) grow with this ratio.
pub fn skew_factor(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 || counts.is_empty() {
        return 1.0;
    }
    let ideal = total as f64 / counts.len() as f64;
    let max = *counts.iter().max().expect("non-empty") as f64;
    max / ideal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fxhash_is_deterministic_and_spreads() {
        assert_eq!(fxhash(&"hello"), fxhash(&"hello"));
        assert_ne!(fxhash(&"hello"), fxhash(&"hellp"));
        assert_ne!(fxhash(&1u64), fxhash(&2u64));
    }

    #[test]
    fn hash_partitioner_balances_distinct_keys() {
        let p = HashPartitioner::new(16);
        let mut counts = vec![0usize; 16];
        for i in 0..16_000u64 {
            let part = p.partition(&format!("key{i}"));
            assert!(part < 16);
            counts[part] += 1;
        }
        assert!(
            skew_factor(&counts) < 1.25,
            "hash partitions unbalanced: {counts:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_panics() {
        let _ = HashPartitioner::new(0);
    }

    #[test]
    fn same_key_same_partition() {
        let p = HashPartitioner::new(7);
        for key in ["a", "the", "word123456"] {
            assert_eq!(p.partition(key), p.partition(key));
        }
    }

    #[test]
    fn range_partitioner_is_monotone() {
        let p = RangePartitioner::new(vec![10u64, 20, 30]);
        assert_eq!(p.partitions(), 4);
        assert_eq!(p.partition(&5), 0);
        assert_eq!(p.partition(&10), 1); // boundary goes right
        assert_eq!(p.partition(&15), 1);
        assert_eq!(p.partition(&30), 3);
        assert_eq!(p.partition(&1000), 3);
    }

    #[test]
    fn from_sample_balances_uniform_keys() {
        let sample: Vec<u64> = (0..10_000).map(|i| (i * 2654435761) % 1_000_000).collect();
        let p = RangePartitioner::from_sample(sample.clone(), 8);
        let mut counts = vec![0usize; p.partitions()];
        for k in &sample {
            counts[p.partition(k)] += 1;
        }
        assert!(skew_factor(&counts) < 1.3, "range skew: {counts:?}");
    }

    #[test]
    fn from_sample_single_partition() {
        let p = RangePartitioner::from_sample(vec![1u32, 2, 3], 1);
        assert_eq!(p.partitions(), 1);
        assert_eq!(p.partition(&100), 0);
    }

    #[test]
    fn from_sample_empty_sample() {
        let p = RangePartitioner::<u32>::from_sample(vec![], 8);
        assert_eq!(p.partitions(), 1);
    }

    #[test]
    fn skew_factor_extremes() {
        assert!((skew_factor(&[100, 100, 100, 100]) - 1.0).abs() < 1e-9);
        assert!((skew_factor(&[400, 0, 0, 0]) - 4.0).abs() < 1e-9);
        assert_eq!(skew_factor(&[]), 1.0);
        assert_eq!(skew_factor(&[0, 0]), 1.0);
    }
}
