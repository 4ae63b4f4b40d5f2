//! Parameter configuration model (§IV of the paper).
//!
//! The paper identifies four parameter groups with a major influence on the
//! end-to-end execution: task parallelism, shuffle/network buffers, memory
//! management and data serialization. This module models those parameters
//! for both engines, provides the formulas used in Tables II, III, V and VI,
//! and validates configurations the way the real frameworks fail
//! (insufficient task slots, insufficient network buffers, heap too small).

use serde::{Deserialize, Serialize};

/// Which engine a configuration or result refers to.
///
/// Throughout flowmark, `Spark` denotes the staged/loop-unrolling engine
/// model ("Riverbed") and `Flink` the pipelined/native-iteration model
/// ("Streamside"), matching the systems the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Framework {
    /// Staged execution, RDD model (Apache Spark 1.5.3 in the paper).
    Spark,
    /// Pipelined execution, PACT model (Apache Flink 0.10.2 in the paper).
    Flink,
}

impl Framework {
    /// Both frameworks, in the paper's plotting order.
    pub const BOTH: [Framework; 2] = [Framework::Spark, Framework::Flink];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Framework::Spark => "Spark",
            Framework::Flink => "Flink",
        }
    }
}

impl std::fmt::Display for Framework {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Serializer choice (§IV-D). Flink always uses type-information-driven
/// binary serialization; Spark defaults to Java and can be switched to Kryo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Serializer {
    /// JDK object serialization: large records, high CPU cost.
    Java,
    /// Kryo: compact, faster than Java, still generic.
    Kryo,
    /// Flink TypeInformation-based binary format with serialized-form
    /// comparators (e.g. `OptimizedText`).
    TypeInfo,
}

impl Serializer {
    /// Relative on-wire/On-disk size factor vs. raw payload bytes.
    /// Calibrated from published JVM serializer benchmarks: Java ≈ 1.6×,
    /// Kryo ≈ 1.1×, Flink binary ≈ 1.0×.
    pub fn size_factor(self) -> f64 {
        match self {
            Serializer::Java => 1.60,
            Serializer::Kryo => 1.10,
            Serializer::TypeInfo => 1.00,
        }
    }

    /// Relative CPU cost factor per serialized byte (Java slowest).
    pub fn cpu_factor(self) -> f64 {
        match self {
            Serializer::Java => 1.80,
            Serializer::Kryo => 1.15,
            Serializer::TypeInfo => 1.00,
        }
    }
}

/// Spark-side execution parameters (§IV, Tables II/III/V/VI).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparkConfig {
    /// `spark.default.parallelism`: number of partitions of shuffled RDDs.
    pub default_parallelism: u32,
    /// `spark.executor.memory` in GiB (all of it on the JVM heap).
    pub executor_memory_gb: f64,
    /// `spark.storage.fraction`: heap fraction reserved for cached RDDs.
    pub storage_fraction: f64,
    /// `spark.shuffle.fraction`: heap fraction reserved for shuffle buffers.
    pub shuffle_fraction: f64,
    /// `spark.serializer`.
    pub serializer: Serializer,
    /// Shuffle file buffer size in KiB (`shuffle.file.buffer`).
    pub shuffle_file_buffer_kb: u32,
    /// Shuffle file consolidation enabled (the paper enables it).
    pub consolidate_files: bool,
    /// Map-output compression (on by default in Spark; the paper notes
    /// "Spark uses less network in this case due to the map output
    /// compression", §VI-C).
    pub compress_map_output: bool,
    /// GraphX `spark.edge.partition` (edge partitions), when applicable.
    pub edge_partitions: Option<u32>,
}

impl Default for SparkConfig {
    fn default() -> Self {
        Self {
            default_parallelism: 8,
            executor_memory_gb: 22.0,
            storage_fraction: 0.3,
            shuffle_fraction: 0.3,
            serializer: Serializer::Java,
            shuffle_file_buffer_kb: 32,
            consolidate_files: true,
            compress_map_output: true,
            edge_partitions: None,
        }
    }
}

/// Flink-side execution parameters (§IV, Tables II/III/V/VI).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlinkConfig {
    /// `flink.default.parallelism` (bounded by total task slots).
    pub default_parallelism: u32,
    /// Task slots per node (typically = cores, sometimes 2× cores, §VI-A).
    pub task_slots_per_node: u32,
    /// `taskmanager.memory` in GiB.
    pub taskmanager_memory_gb: f64,
    /// `taskmanager.memory.fraction`: portion managed (sort/hash/cache).
    pub memory_fraction: f64,
    /// Hybrid on-/off-heap allocation enabled (`flink.off-heap`).
    pub off_heap: bool,
    /// Number of network buffers (`flink.nw.buffers`); the paper sets
    /// `Nodes*2048` for WC/Grep, `Nodes*1024` for TeraSort, and
    /// `cores²·nodes·16` for graphs.
    pub network_buffers: u32,
    /// Network buffer size in KiB (32 default, paper uses 64/128).
    pub buffer_size_kb: u32,
}

impl Default for FlinkConfig {
    fn default() -> Self {
        Self {
            default_parallelism: 8,
            task_slots_per_node: 16,
            taskmanager_memory_gb: 4.0,
            memory_fraction: 0.7,
            off_heap: true,
            network_buffers: 2048,
            buffer_size_kb: 32,
        }
    }
}

/// Cluster-wide settings shared by both engines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub nodes: u32,
    /// Cores per node (Grid'5000 paravance: 2 × 8).
    pub cores_per_node: u32,
    /// RAM per node in GiB (128 on the testbed).
    pub ram_gb: f64,
    /// HDFS block size in MiB (256 for WC/Grep, 1024 for TeraSort).
    pub hdfs_block_mb: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            nodes: 4,
            cores_per_node: 16,
            ram_gb: 128.0,
            hdfs_block_mb: 256,
        }
    }
}

impl ClusterConfig {
    /// Total cores in the cluster.
    pub fn total_cores(&self) -> u32 {
        self.nodes * self.cores_per_node
    }
}

/// A complete experiment configuration: cluster plus both engine configs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Shared cluster settings.
    pub cluster: ClusterConfig,
    /// Spark parameters.
    pub spark: SparkConfig,
    /// Flink parameters.
    pub flink: FlinkConfig,
}

impl RunConfig {
    /// Builds the paper's canonical configuration for a cluster size using
    /// the §IV formulas: Spark parallelism = cores × factor (2..6), Flink
    /// parallelism = total cores, Flink buffers = nodes × 2048.
    pub fn canonical(nodes: u32, spark_parallelism_factor: u32) -> Self {
        let cluster = ClusterConfig {
            nodes,
            ..ClusterConfig::default()
        };
        let cores = cluster.total_cores();
        let spark = SparkConfig {
            default_parallelism: cores * spark_parallelism_factor,
            ..SparkConfig::default()
        };
        let flink = FlinkConfig {
            default_parallelism: cores,
            network_buffers: nodes * 2048,
            ..FlinkConfig::default()
        };
        Self {
            cluster,
            spark,
            flink,
        }
    }

    /// Per-engine parallelism.
    pub fn parallelism(&self, fw: Framework) -> u32 {
        match fw {
            Framework::Spark => self.spark.default_parallelism,
            Framework::Flink => self.flink.default_parallelism,
        }
    }
}

/// Configuration validation failures, mirroring how the real frameworks die
/// (§VI-A "we had to increase the number of buffers in order to avoid failed
/// executions"; §VI-C "otherwise Flink fails due to insufficient task
/// slots").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConfigError {
    /// Flink parallelism exceeds available task slots.
    InsufficientTaskSlots {
        /// Requested operator parallelism.
        requested: u32,
        /// Total task slots in the cluster.
        available: u32,
    },
    /// Flink network buffers cannot cover the shuffle connections.
    InsufficientNetworkBuffers {
        /// Buffers required for the densest shuffle.
        required: u32,
        /// Buffers configured.
        configured: u32,
    },
    /// Memory fraction outside `(0, 1]`.
    InvalidFraction {
        /// The offending parameter name.
        parameter: &'static str,
    },
    /// Zero parallelism or zero nodes.
    Degenerate {
        /// The offending parameter name.
        parameter: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InsufficientTaskSlots {
                requested,
                available,
            } => write!(
                f,
                "insufficient task slots: parallelism {requested} > {available} slots"
            ),
            ConfigError::InsufficientNetworkBuffers {
                required,
                configured,
            } => write!(
                f,
                "insufficient network buffers: need {required}, configured {configured}"
            ),
            ConfigError::InvalidFraction { parameter } => {
                write!(f, "{parameter} must lie in (0, 1]")
            }
            ConfigError::Degenerate { parameter } => {
                write!(f, "{parameter} must be non-zero")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl RunConfig {
    /// Validates a configuration the way the frameworks do at job submit.
    ///
    /// Flink requires (a) parallelism ≤ total task slots and (b) at least
    /// `parallelism × parallelism / nodes` network buffers per node for an
    /// all-to-all shuffle (each logical channel between a mapper and a
    /// reducer subtask needs a buffer).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cluster.nodes == 0 {
            return Err(ConfigError::Degenerate { parameter: "nodes" });
        }
        if self.spark.default_parallelism == 0 {
            return Err(ConfigError::Degenerate {
                parameter: "spark.default.parallelism",
            });
        }
        if self.flink.default_parallelism == 0 {
            return Err(ConfigError::Degenerate {
                parameter: "flink.default.parallelism",
            });
        }
        for (value, parameter) in [
            (self.spark.storage_fraction, "spark.storage.fraction"),
            (self.spark.shuffle_fraction, "spark.shuffle.fraction"),
            (self.flink.memory_fraction, "taskmanager.memory.fraction"),
        ] {
            if !(value > 0.0 && value <= 1.0) {
                return Err(ConfigError::InvalidFraction { parameter });
            }
        }
        let slots = self.flink.task_slots_per_node * self.cluster.nodes;
        if self.flink.default_parallelism > slots {
            return Err(ConfigError::InsufficientTaskSlots {
                requested: self.flink.default_parallelism,
                available: slots,
            });
        }
        let p = self.flink.default_parallelism as u64;
        let required = (p * p / self.cluster.nodes.max(1) as u64).min(u32::MAX as u64) as u32;
        let configured = self.flink.network_buffers;
        if configured < required {
            return Err(ConfigError::InsufficientNetworkBuffers {
                required,
                configured,
            });
        }
        Ok(())
    }

    /// Managed memory per Flink task slot in bytes, the quantity whose
    /// exhaustion kills CoGroup on the large graph (§VI-E, Table VII).
    pub fn flink_managed_memory_per_slot(&self) -> f64 {
        let per_node = self.flink.taskmanager_memory_gb * self.flink.memory_fraction;
        per_node * 1e9 / self.flink.task_slots_per_node as f64
    }

    /// Spark heap available for execution per core, in bytes.
    pub fn spark_execution_memory_per_core(&self) -> f64 {
        let exec_fraction = 1.0 - self.spark.storage_fraction;
        self.spark.executor_memory_gb * exec_fraction * 1e9 / self.cluster.cores_per_node as f64
    }
}

/// Which partitioner a shuffle uses to route keys to reducers.
///
/// The paper notes the asymmetry (§II): Spark exposes partitioner control
/// to the user while Flink's aggregation path always hash-partitions, so
/// only the staged engine's `reduce_by_key` honours this knob; the
/// pipelined `group_reduce` ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PartitionerChoice {
    /// Hash-partitioned shuffle (both engines' default).
    Hash,
    /// Range-partitioned shuffle from a key sample; yields globally sorted
    /// reduce output and balances skewed key spaces (staged engine only).
    Range,
}

/// Where an engine runs its stage/partition tasks. There is one
/// executor: every finite task of either engine goes to the process-wide
/// work-stealing pool (`flowmark-sched::TaskPool::global`), which keeps a
/// fixed core set busy across stages and concurrent jobs. The type
/// remains so configs that name it still parse and build; it carries no
/// choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ExecutorMode {
    /// Submit stage tasks to the process-wide work-stealing pool.
    ///
    /// Threads that block on channels (the pipelined exchange's
    /// producers/consumers, the vertex-centric workers, the streaming
    /// runtimes) keep dedicated threads: a fixed-size pool must never
    /// absorb a blocking loop.
    #[default]
    SharedPool,
}

/// A unified, serializable configuration for the *real* engines (the
/// staged `SparkContext` and the pipelined `FlinkEnv`), replacing the
/// per-engine constructor sprawl. Every knob maps to one of the paper's
/// §IV "most impactful parameters"; `flowmark-tune` searches this space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Task/partition parallelism (`spark.default.parallelism`, Flink
    /// operator parallelism).
    pub parallelism: usize,
    /// Records a bounded exchange channel holds before the producer blocks
    /// — the per-channel network-buffer pool (`flink.nw.buffers`; the
    /// staged engine has no pipelined channels so it ignores this).
    pub network_buffer_records: usize,
    /// Sort/combine buffer budget in records: how many records a map task
    /// buffers per reduce channel before sorting a run out (the managed
    /// sort memory of §IV-C).
    pub combine_buffer_records: usize,
    /// Spill threshold expressed as outstanding sorted runs per channel
    /// before the buffer pool forces an early merge-compaction.
    pub spill_run_budget: usize,
    /// Map-side combine on/off (§VI-A's aggregation component).
    pub combine_enabled: bool,
    /// Shuffle partitioner choice (staged engine only; see
    /// [`PartitionerChoice`]).
    pub partitioner: PartitionerChoice,
    /// Storage-cache budget in bytes (staged engine's block cache;
    /// the pipelined engine has no persistence layer, §VI-B).
    pub cache_bytes: u64,
    /// Where stage/partition tasks execute: always the shared pool, so
    /// the field carries no choice (serde-defaulted so artifacts without
    /// it parse).
    #[serde(default)]
    pub executor: ExecutorMode,
}

impl EngineConfig {
    /// Default task parallelism (the paper's per-node slot count scaled to
    /// one local machine).
    pub const DEFAULT_PARALLELISM: usize = 8;
    /// Default per-channel network-buffer capacity in records.
    pub const DEFAULT_NETWORK_BUFFER_RECORDS: usize = 1024;
    /// Default sort/combine buffer capacity in records.
    pub const DEFAULT_COMBINE_BUFFER_RECORDS: usize = 4096;
    /// Default outstanding-run budget per channel before a forced merge.
    pub const DEFAULT_SPILL_RUN_BUDGET: usize = 4;
    /// Default block-cache budget in bytes.
    pub const DEFAULT_CACHE_BYTES: u64 = 256 << 20;

    /// The default configuration at an explicit parallelism.
    pub fn with_parallelism(parallelism: usize) -> Self {
        Self {
            parallelism,
            ..Self::default()
        }
    }

    /// Validates the knobs the engines would otherwise assert on.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (value, parameter) in [
            (self.parallelism, "parallelism"),
            (self.network_buffer_records, "network_buffer_records"),
            (self.combine_buffer_records, "combine_buffer_records"),
            (self.spill_run_budget, "spill_run_budget"),
        ] {
            if value == 0 {
                return Err(ConfigError::Degenerate { parameter });
            }
        }
        Ok(())
    }

    /// A stable 64-bit fingerprint of every knob (FNV-1a), the run-cache
    /// key used by `flowmark-tune`: identical configs always collide,
    /// across processes and runs.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(self.parallelism as u64);
        eat(self.network_buffer_records as u64);
        eat(self.combine_buffer_records as u64);
        eat(self.spill_run_budget as u64);
        eat(u64::from(self.combine_enabled));
        eat(match self.partitioner {
            PartitionerChoice::Hash => 0,
            PartitionerChoice::Range => 1,
        });
        eat(self.cache_bytes);
        h
    }

    /// Coarse upper bound on the bytes a job under this config can pin at
    /// once: the block-cache budget plus the sort/combine spill buffers and
    /// the bounded network channels, all at full occupancy. This is the
    /// byte-denominated cost the serve layer's admission controller charges
    /// against its memory budget — deliberately pessimistic, because
    /// admission must never over-commit.
    pub fn memory_footprint_bytes(&self) -> u64 {
        /// Per-record footprint estimate for buffer sizing (pointer-sized
        /// key + value + bookkeeping).
        const RECORD_BYTES: u64 = 64;
        let combine = self.parallelism as u64
            * self.combine_buffer_records as u64
            * self.spill_run_budget as u64
            * RECORD_BYTES;
        let network =
            self.parallelism as u64 * self.network_buffer_records as u64 * RECORD_BYTES;
        self.cache_bytes + combine + network
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            parallelism: Self::DEFAULT_PARALLELISM,
            network_buffer_records: Self::DEFAULT_NETWORK_BUFFER_RECORDS,
            combine_buffer_records: Self::DEFAULT_COMBINE_BUFFER_RECORDS,
            spill_run_budget: Self::DEFAULT_SPILL_RUN_BUDGET,
            combine_enabled: true,
            partitioner: PartitionerChoice::Hash,
            cache_bytes: Self::DEFAULT_CACHE_BYTES,
            executor: ExecutorMode::default(),
        }
    }
}

/// Configuration for the supervised job service (`flowmark-serve`): the
/// admission, queueing, deadline, retry and circuit-breaker policies that
/// sit *above* both engines. Durations are milliseconds so the struct
/// serializes with the same plain-integer discipline as every other
/// config here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Bounded job-queue capacity; an admission beyond it is shed with
    /// `Rejected::QueueFull` rather than buffered without bound.
    pub queue_capacity: usize,
    /// Byte-denominated memory budget shared by all in-flight jobs; a job
    /// charges [`EngineConfig::memory_footprint_bytes`] on admission and
    /// releases it on resolution.
    pub memory_budget_bytes: u64,
    /// Deadline applied to jobs that do not bring their own, in
    /// milliseconds; expiry cancels the job cooperatively.
    pub default_deadline_ms: u64,
    /// Retries a job may consume after its first attempt fails (0 = one
    /// attempt only).
    pub retry_budget: u32,
    /// Base of the exponential retry backoff, in milliseconds.
    pub backoff_base_ms: u64,
    /// Cap on any single backoff delay, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed for the deterministic backoff jitter and the breaker's
    /// half-open probe choice.
    pub seed: u64,
    /// Consecutive per-engine job failures that open that engine's
    /// circuit breaker.
    pub breaker_threshold: u32,
    /// Rejections a breaker serves while open before it goes half-open
    /// and admits a probe job (count-based, so tests stay deterministic).
    pub breaker_cooldown: u32,
    /// Worker threads draining the queue.
    pub workers: usize,
}

impl ServiceConfig {
    /// Default bounded queue capacity.
    pub const DEFAULT_QUEUE_CAPACITY: usize = 32;
    /// Default shared memory budget: four default engine footprints.
    pub const DEFAULT_MEMORY_BUDGET_BYTES: u64 = 4 << 30;
    /// Default per-job deadline (generous: local jobs run in seconds).
    pub const DEFAULT_DEADLINE_MS: u64 = 60_000;
    /// Default retry budget per job.
    pub const DEFAULT_RETRY_BUDGET: u32 = 2;
    /// Default backoff base.
    pub const DEFAULT_BACKOFF_BASE_MS: u64 = 5;
    /// Default backoff cap.
    pub const DEFAULT_BACKOFF_CAP_MS: u64 = 100;
    /// Default consecutive-failure threshold opening a breaker.
    pub const DEFAULT_BREAKER_THRESHOLD: u32 = 3;
    /// Default open-state rejection count before a half-open probe.
    pub const DEFAULT_BREAKER_COOLDOWN: u32 = 2;
    /// Default worker-thread count.
    pub const DEFAULT_WORKERS: usize = 4;

    /// Validates the knobs the service would otherwise assert on.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (value, parameter) in [
            (self.queue_capacity, "queue_capacity"),
            (self.workers, "workers"),
            (self.breaker_threshold as usize, "breaker_threshold"),
            (self.default_deadline_ms as usize, "default_deadline_ms"),
        ] {
            if value == 0 {
                return Err(ConfigError::Degenerate { parameter });
            }
        }
        if self.memory_budget_bytes == 0 {
            return Err(ConfigError::Degenerate {
                parameter: "memory_budget_bytes",
            });
        }
        if self.backoff_cap_ms < self.backoff_base_ms {
            return Err(ConfigError::Degenerate {
                parameter: "backoff_cap_ms",
            });
        }
        Ok(())
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: Self::DEFAULT_QUEUE_CAPACITY,
            memory_budget_bytes: Self::DEFAULT_MEMORY_BUDGET_BYTES,
            default_deadline_ms: Self::DEFAULT_DEADLINE_MS,
            retry_budget: Self::DEFAULT_RETRY_BUDGET,
            backoff_base_ms: Self::DEFAULT_BACKOFF_BASE_MS,
            backoff_cap_ms: Self::DEFAULT_BACKOFF_CAP_MS,
            seed: 0,
            breaker_threshold: Self::DEFAULT_BREAKER_THRESHOLD,
            breaker_cooldown: Self::DEFAULT_BREAKER_COOLDOWN,
            workers: Self::DEFAULT_WORKERS,
        }
    }
}

/// One tenant of the fair-share scheduler: an identity plus the weight
/// and byte/core budgets its jobs are arbitrated under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Tenant identity jobs name via `JobRequest::tenant`.
    pub tenant: u32,
    /// Deficit-round-robin weight: per dequeue round a tenant's lane
    /// earns `quantum_bytes * weight` of credit, so a weight-4 tenant
    /// drains jobs four times as fast as a weight-1 tenant under
    /// contention.
    pub weight: u32,
    /// Per-tenant byte budget charged with
    /// [`EngineConfig::memory_footprint_bytes`] on admission, on top of
    /// the service-wide budget.
    pub memory_budget_bytes: u64,
    /// Per-tenant in-flight job cap (the "core budget"): the dequeue
    /// skips a lane whose tenant already runs this many jobs.
    pub max_in_flight: usize,
}

impl TenantSpec {
    /// A tenant with weight 1 and effectively unbounded budgets —
    /// useful as the single default lane, which reduces DRR to FIFO.
    pub fn unbounded(tenant: u32) -> Self {
        Self {
            tenant,
            weight: 1,
            memory_budget_bytes: u64::MAX,
            max_in_flight: usize::MAX,
        }
    }
}

/// Fair-share admission policy for `flowmark-serve`: the tenant table
/// plus the DRR quantum. The default — one unbounded tenant 0 — makes
/// the scheduler byte-for-byte equivalent to the old FIFO queue, which
/// is exactly the bench baseline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FairShareConfig {
    /// The tenant lanes. Jobs naming an unlisted tenant are rejected.
    pub tenants: Vec<TenantSpec>,
    /// Bytes of deficit credit a weight-1 lane earns per dequeue round.
    pub quantum_bytes: u64,
}

impl FairShareConfig {
    /// Default DRR quantum: one default engine-config footprint, so a
    /// weight-1 tenant dequeues about one typical job per round.
    pub const DEFAULT_QUANTUM_BYTES: u64 = 1 << 30;

    /// Validates tenant uniqueness and degenerate knobs.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.tenants.is_empty() {
            return Err(ConfigError::Degenerate { parameter: "tenants" });
        }
        if self.quantum_bytes == 0 {
            return Err(ConfigError::Degenerate {
                parameter: "quantum_bytes",
            });
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if t.weight == 0 {
                return Err(ConfigError::Degenerate { parameter: "weight" });
            }
            if t.max_in_flight == 0 {
                return Err(ConfigError::Degenerate {
                    parameter: "max_in_flight",
                });
            }
            if t.memory_budget_bytes == 0 {
                return Err(ConfigError::Degenerate {
                    parameter: "memory_budget_bytes",
                });
            }
            if self.tenants[..i].iter().any(|o| o.tenant == t.tenant) {
                return Err(ConfigError::Degenerate { parameter: "tenant" });
            }
        }
        Ok(())
    }
}

impl Default for FairShareConfig {
    fn default() -> Self {
        Self {
            tenants: vec![TenantSpec::unbounded(0)],
            quantum_bytes: Self::DEFAULT_QUANTUM_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_config_default_validates() {
        let c = ServiceConfig::default();
        assert!(c.validate().is_ok());
        let mut bad = c;
        bad.queue_capacity = 0;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::Degenerate { parameter: "queue_capacity" })
        ));
        let mut inverted = c;
        inverted.backoff_cap_ms = c.backoff_base_ms.saturating_sub(1);
        assert!(inverted.validate().is_err());
    }

    #[test]
    fn memory_footprint_grows_with_buffers_and_cache() {
        let base = EngineConfig::default();
        let mut bigger = base;
        bigger.cache_bytes *= 2;
        assert!(bigger.memory_footprint_bytes() > base.memory_footprint_bytes());
        let mut buffered = base;
        buffered.combine_buffer_records *= 4;
        assert!(buffered.memory_footprint_bytes() > base.memory_footprint_bytes());
        assert!(base.memory_footprint_bytes() >= base.cache_bytes);
    }

    #[test]
    fn engine_config_default_validates_and_fingerprints_stably() {
        let c = EngineConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.fingerprint(), EngineConfig::default().fingerprint());
        let mut other = c;
        other.combine_enabled = false;
        assert_ne!(c.fingerprint(), other.fingerprint());
    }

    #[test]
    fn engine_config_rejects_zero_knobs() {
        let mut c = EngineConfig::default();
        c.network_buffer_records = 0;
        assert!(matches!(c.validate(), Err(ConfigError::Degenerate { .. })));
    }

    #[test]
    fn engine_config_round_trips_through_json() {
        let c = EngineConfig {
            partitioner: PartitionerChoice::Range,
            combine_enabled: false,
            ..EngineConfig::with_parallelism(3)
        };
        let json = serde_json::to_string(&c).unwrap();
        let back: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn canonical_follows_paper_formulas() {
        let c = RunConfig::canonical(16, 6);
        assert_eq!(c.cluster.total_cores(), 256);
        assert_eq!(c.parallelism(Framework::Spark), 1536); // Table II, 16 nodes
        assert_eq!(c.parallelism(Framework::Flink), 256);
        assert_eq!(c.flink.network_buffers, 16 * 2048);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn task_slot_exhaustion_detected() {
        let mut c = RunConfig::canonical(4, 2);
        c.flink.default_parallelism = 4 * 16 * 2 + 1;
        c.flink.network_buffers = u32::MAX;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::InsufficientTaskSlots { .. })
        ));
        c.flink.task_slots_per_node = 33; // 2 slots/core + 1
        assert!(c.validate().is_ok());
    }

    #[test]
    fn network_buffer_exhaustion_detected() {
        let mut c = RunConfig::canonical(32, 2);
        // 512 parallelism ⇒ 512²/32 = 8192 buffers needed; give fewer.
        c.flink.network_buffers = 1024;
        let err = c.validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::InsufficientNetworkBuffers {
                required: 8192,
                configured: 1024
            }
        );
    }

    #[test]
    fn invalid_fraction_rejected() {
        let mut c = RunConfig::canonical(2, 2);
        c.flink.memory_fraction = 0.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::InvalidFraction { .. })
        ));
        c.flink.memory_fraction = 1.5;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::InvalidFraction { .. })
        ));
    }

    #[test]
    fn degenerate_rejected() {
        let mut c = RunConfig::canonical(2, 2);
        c.spark.default_parallelism = 0;
        assert!(matches!(c.validate(), Err(ConfigError::Degenerate { .. })));
    }

    #[test]
    fn managed_memory_accounting() {
        let c = RunConfig::canonical(4, 2);
        // 4 GiB × 0.7 / 16 slots = 175 MB per slot.
        let per_slot = c.flink_managed_memory_per_slot();
        assert!((per_slot - 4.0 * 0.7 * 1e9 / 16.0).abs() < 1.0);
    }

    #[test]
    fn serializer_ordering() {
        // TypeInfo < Kryo < Java in both size and CPU cost (§IV-D).
        assert!(Serializer::TypeInfo.size_factor() < Serializer::Kryo.size_factor());
        assert!(Serializer::Kryo.size_factor() < Serializer::Java.size_factor());
        assert!(Serializer::TypeInfo.cpu_factor() < Serializer::Kryo.cpu_factor());
        assert!(Serializer::Kryo.cpu_factor() < Serializer::Java.cpu_factor());
    }

    #[test]
    fn framework_display() {
        assert_eq!(Framework::Spark.to_string(), "Spark");
        assert_eq!(Framework::Flink.to_string(), "Flink");
    }
}
