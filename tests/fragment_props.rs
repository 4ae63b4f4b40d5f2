//! Property tests for the cross-job fragment cache, driven through the
//! real engines on Word Count (the batch-exchange workload both engines
//! share):
//!
//! * a checksum-verified cache **hit is oracle-equal** to recomputation —
//!   the second job reuses the first job's sealed exchange output and
//!   still produces exactly the sequential oracle's counts;
//! * jobs whose **fault plans differ must miss**, not alias: the
//!   `FaultConfig` fingerprint is part of the fragment key, so a
//!   chaos-plan job never consumes a clean-plan fragment (or vice
//!   versa), even with identical plan, input and config fingerprints.

use std::sync::Arc;

use proptest::prelude::*;

use flowmark_core::config::{EngineConfig, Framework};
use flowmark_engine::{FaultConfig, FaultPlan, Setup};
use flowmark_sched::{FragmentCache, FragmentKey};
use flowmark_workloads::wordcount;

/// Words over a tiny vocabulary so counts collide across lines.
const VOCAB: [&str; 6] = ["alpha", "beta", "gamma", "delta", "x", "longword"];

fn arb_lines() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(
        prop::collection::vec(0usize..VOCAB.len(), 1..8)
            .prop_map(|ws| ws.into_iter().map(|w| VOCAB[w]).collect::<Vec<_>>().join(" ")),
        1..24,
    )
}

fn key(engine: Framework, config: &EngineConfig, faults: u64) -> FragmentKey {
    FragmentKey {
        plan: 0x574f_5244 ^ engine_tag(engine), // "WORD"
        input: 7,
        config: config.fingerprint(),
        faults,
    }
}

fn engine_tag(engine: Framework) -> u64 {
    match engine {
        Framework::Spark => 1,
        Framework::Flink => 2,
    }
}

/// Runs wordcount once on `engine` with the cache attached under `key`.
fn run_once(
    engine: Framework,
    config: &EngineConfig,
    lines: &[String],
    cache: &Arc<FragmentCache>,
    k: FragmentKey,
    plan: FaultPlan,
) -> std::collections::HashMap<String, u64> {
    let setup = Setup {
        faults: plan,
        fragment: Some((Arc::clone(cache), k)),
        ..Setup::from(*config)
    };
    match engine {
        Framework::Spark => {
            wordcount::run_spark(&setup.spark(), lines.to_vec(), config.parallelism)
        }
        Framework::Flink => wordcount::run_flink(&setup.flink(), lines.to_vec()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A verified hit reproduces the oracle exactly on both engines.
    #[test]
    fn fragment_hits_are_oracle_equal(
        lines in arb_lines(),
        parallelism in 1usize..4,
    ) {
        let expect = wordcount::oracle(&lines);
        let config = EngineConfig::with_parallelism(parallelism);
        for engine in [Framework::Spark, Framework::Flink] {
            let cache = Arc::new(FragmentCache::new(1 << 30));
            let k = key(engine, &config, 0);
            let cold = run_once(engine, &config, &lines, &cache, k, FaultPlan::disabled());
            prop_assert_eq!(&cold, &expect, "cold run diverged on {:?}", engine);
            prop_assert_eq!(cache.stats().insertions, 1);

            let warm = run_once(engine, &config, &lines, &cache, k, FaultPlan::disabled());
            prop_assert_eq!(&warm, &expect, "cache hit diverged on {:?}", engine);
            prop_assert_eq!(
                cache.stats().hits, 1,
                "second identical job must hit on {:?}", engine
            );
            prop_assert_eq!(cache.stats().invalidations, 0);
        }
    }

    /// Differing fault plans produce differing keys, which must miss:
    /// two jobs that agree on everything but their `FaultConfig`
    /// fingerprint never share a fragment.
    #[test]
    fn differing_fault_plans_miss_not_alias(
        lines in arb_lines(),
        chaos_seed in 1u64..1_000,
    ) {
        let expect = wordcount::oracle(&lines);
        let config = EngineConfig::with_parallelism(2);
        let clean_fp = 0u64;
        let chaos_fp = FaultConfig::chaos(chaos_seed).fingerprint();
        prop_assert_ne!(clean_fp, chaos_fp);

        for engine in [Framework::Spark, Framework::Flink] {
            let cache = Arc::new(FragmentCache::new(1 << 30));
            let first = run_once(
                engine, &config, &lines, &cache,
                key(engine, &config, clean_fp),
                FaultPlan::disabled(),
            );
            prop_assert_eq!(&first, &expect);
            // Same plan, input and config fingerprints — only the fault
            // fingerprint differs. It must recompute, not reuse.
            let second = run_once(
                engine, &config, &lines, &cache,
                key(engine, &config, chaos_fp),
                FaultPlan::disabled(),
            );
            prop_assert_eq!(&second, &expect);
            let stats = cache.stats();
            prop_assert_eq!(stats.hits, 0, "fault-plan keys aliased on {:?}", engine);
            prop_assert_eq!(stats.insertions, 2);
        }
    }
}
