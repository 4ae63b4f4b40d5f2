//! The tuning search space: per-knob candidate values.
//!
//! One axis per [`EngineConfig`] field. An axis with a single value is
//! pinned — the searches never move it. [`ParamSpace::for_engine`] pins the
//! axes that do not exist on one engine: the staged engine has no bounded
//! network channels (its exchange is a barrier, §II-C), so
//! `network_buffer_records` is inert there; the pipelined engine's
//! aggregation always hash-partitions (the paper notes Flink exposes no
//! per-job range partitioner for `groupBy`, §II-B), so `partitioner` is
//! pinned to hash.

use flowmark_core::config::{EngineConfig, Framework, PartitionerChoice};
use rand::rngs::SmallRng;
use rand::Rng;

/// Candidate values for every tunable knob.
#[derive(Debug, Clone)]
pub struct ParamSpace {
    /// Worker/partition counts to try (§IV-A).
    pub parallelism: Vec<usize>,
    /// Pipelined-engine channel capacities, in records (§IV-B).
    pub network_buffer_records: Vec<usize>,
    /// Sort-combine buffer capacities, in records (§VI-A).
    pub combine_buffer_records: Vec<usize>,
    /// Outstanding spill runs per channel before an early merge.
    pub spill_run_budget: Vec<usize>,
    /// Whether map-side combining is on at all.
    pub combine_enabled: Vec<bool>,
    /// Shuffle partitioner for the staged engine's aggregations.
    pub partitioner: Vec<PartitionerChoice>,
    /// Block-cache budgets, bytes.
    pub cache_bytes: Vec<u64>,
}

impl ParamSpace {
    /// The small space the smoke drill searches: extremes plus the default
    /// on every interesting axis, ~dozens of configs per engine.
    pub fn smoke() -> Self {
        Self {
            parallelism: vec![2, 4, 8],
            network_buffer_records: vec![64, EngineConfig::DEFAULT_NETWORK_BUFFER_RECORDS],
            combine_buffer_records: vec![256, EngineConfig::DEFAULT_COMBINE_BUFFER_RECORDS],
            spill_run_budget: vec![2, 8],
            combine_enabled: vec![false, true],
            partitioner: vec![PartitionerChoice::Hash, PartitionerChoice::Range],
            cache_bytes: vec![EngineConfig::DEFAULT_CACHE_BYTES],
        }
        .normalized()
    }

    /// The full CLI space: a denser sweep of each axis.
    pub fn full() -> Self {
        Self {
            parallelism: vec![2, 4, 8, 16],
            network_buffer_records: vec![64, 256, 1024, 4096],
            combine_buffer_records: vec![256, 1024, 4096, 16384],
            spill_run_budget: vec![2, 4, 8],
            combine_enabled: vec![false, true],
            partitioner: vec![PartitionerChoice::Hash, PartitionerChoice::Range],
            cache_bytes: vec![EngineConfig::DEFAULT_CACHE_BYTES],
        }
        .normalized()
    }

    /// Pins the axes that do not apply to `engine` to their defaults.
    pub fn for_engine(mut self, engine: Framework) -> Self {
        match engine {
            Framework::Spark => {
                self.network_buffer_records =
                    vec![EngineConfig::DEFAULT_NETWORK_BUFFER_RECORDS];
            }
            Framework::Flink => {
                self.partitioner = vec![PartitionerChoice::Hash];
            }
        }
        self
    }

    /// Sorts and deduplicates every axis so grid order, `start()` and
    /// neighbour lookups are well defined.
    pub fn normalized(mut self) -> Self {
        self.parallelism.sort_unstable();
        self.parallelism.dedup();
        self.network_buffer_records.sort_unstable();
        self.network_buffer_records.dedup();
        self.combine_buffer_records.sort_unstable();
        self.combine_buffer_records.dedup();
        self.spill_run_budget.sort_unstable();
        self.spill_run_budget.dedup();
        self.combine_enabled.sort_unstable();
        self.combine_enabled.dedup();
        self.partitioner
            .sort_unstable_by_key(|p| matches!(p, PartitionerChoice::Range) as u8);
        self.partitioner.dedup();
        self.cache_bytes.sort_unstable();
        self.cache_bytes.dedup();
        self
    }

    /// Number of configs in the full grid.
    pub fn len(&self) -> usize {
        self.parallelism.len()
            * self.network_buffer_records.len()
            * self.combine_buffer_records.len()
            * self.spill_run_budget.len()
            * self.combine_enabled.len()
            * self.partitioner.len()
            * self.cache_bytes.len()
    }

    /// True when any axis is empty (no config can be built).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most-constrained corner of the space: the smallest value on every
    /// axis. The guided climb starts here so the trial trajectory shows the
    /// bottleneck verdicts pulling each knob open.
    pub fn start(&self) -> EngineConfig {
        EngineConfig {
            parallelism: self.parallelism[0],
            network_buffer_records: self.network_buffer_records[0],
            combine_buffer_records: self.combine_buffer_records[0],
            spill_run_budget: self.spill_run_budget[0],
            combine_enabled: self.combine_enabled[0],
            partitioner: self.partitioner[0],
            cache_bytes: self.cache_bytes[0],
            ..EngineConfig::default()
        }
    }

    /// The full cartesian grid, in fixed axis-major order.
    pub fn grid(&self) -> Vec<EngineConfig> {
        let mut out = Vec::with_capacity(self.len());
        for &parallelism in &self.parallelism {
            for &network_buffer_records in &self.network_buffer_records {
                for &combine_buffer_records in &self.combine_buffer_records {
                    for &spill_run_budget in &self.spill_run_budget {
                        for &combine_enabled in &self.combine_enabled {
                            for &partitioner in &self.partitioner {
                                for &cache_bytes in &self.cache_bytes {
                                    out.push(EngineConfig {
                                        parallelism,
                                        network_buffer_records,
                                        combine_buffer_records,
                                        spill_run_budget,
                                        combine_enabled,
                                        partitioner,
                                        cache_bytes,
                                        ..EngineConfig::default()
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Draws one config uniformly per axis. Axis order is fixed, so equal
    /// seeds draw equal sequences.
    pub fn sample(&self, rng: &mut SmallRng) -> EngineConfig {
        fn pick<T: Copy>(rng: &mut SmallRng, values: &[T]) -> T {
            values[rng.gen_range(0..values.len())]
        }
        EngineConfig {
            parallelism: pick(rng, &self.parallelism),
            network_buffer_records: pick(rng, &self.network_buffer_records),
            combine_buffer_records: pick(rng, &self.combine_buffer_records),
            spill_run_budget: pick(rng, &self.spill_run_budget),
            combine_enabled: pick(rng, &self.combine_enabled),
            partitioner: pick(rng, &self.partitioner),
            cache_bytes: pick(rng, &self.cache_bytes),
            ..EngineConfig::default()
        }
    }

    /// Smallest candidate strictly above `current` on a numeric axis.
    pub fn next_up(values: &[usize], current: usize) -> Option<usize> {
        values.iter().copied().find(|&v| v > current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn grid_covers_the_whole_space_without_duplicates() {
        let space = ParamSpace::smoke();
        let grid = space.grid();
        assert_eq!(grid.len(), space.len());
        let mut prints: Vec<u64> = grid.iter().map(EngineConfig::fingerprint).collect();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), grid.len(), "grid repeated a config");
        for cfg in &grid {
            cfg.validate().expect("every grid config must be valid");
        }
    }

    #[test]
    fn engine_filter_pins_inapplicable_axes() {
        let spark = ParamSpace::smoke().for_engine(Framework::Spark);
        assert_eq!(spark.network_buffer_records.len(), 1);
        assert!(spark.partitioner.len() > 1);
        let flink = ParamSpace::smoke().for_engine(Framework::Flink);
        assert_eq!(flink.partitioner, vec![PartitionerChoice::Hash]);
        assert!(flink.network_buffer_records.len() > 1);
    }

    #[test]
    fn start_is_the_smallest_corner() {
        let space = ParamSpace::smoke();
        let start = space.start();
        assert_eq!(start.parallelism, 2);
        assert_eq!(start.combine_buffer_records, 256);
        assert!(!start.combine_enabled);
        assert_eq!(start.partitioner, PartitionerChoice::Hash);
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let space = ParamSpace::full();
        let draw = |seed: u64| -> Vec<u64> {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..16).map(|_| space.sample(&mut rng).fingerprint()).collect()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10), "different seeds should diverge");
    }

    #[test]
    fn next_up_finds_the_adjacent_value() {
        assert_eq!(ParamSpace::next_up(&[2, 4, 8], 4), Some(8));
        assert_eq!(ParamSpace::next_up(&[2, 4, 8], 8), None);
        assert_eq!(ParamSpace::next_up(&[2, 4, 8], 3), Some(4));
    }
}
