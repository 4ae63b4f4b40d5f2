//! One way to build either engine: [`Setup::spark`] and [`Setup::flink`]
//! build the staged and the pipelined engine from the same [`Setup`], so a
//! caller that sweeps a knob, arms a fault plan or threads a cancel token
//! changes one field and can run either engine. Override the fields that
//! differ from the defaults with struct-update syntax:
//!
//! ```
//! use flowmark_engine::{FaultConfig, FaultPlan, Setup};
//!
//! let setup = Setup {
//!     faults: FaultPlan::new(FaultConfig::chaos(7)),
//!     ..Setup::new(4)
//! };
//! let sc = setup.spark();
//! assert_eq!(sc.default_parallelism(), 4);
//! assert!(sc.faults().active());
//! ```

use flowmark_core::config::EngineConfig;

use crate::faults::{CancelToken, FaultPlan};
use crate::flink::FlinkEnv;
use crate::runtime::FragmentHandle;
use crate::spark::SparkContext;

/// Everything an engine context is built from. Cheap to clone: the fault
/// plan, the cancel token and the fragment cache are shared handles, so two
/// contexts built from one `Setup` share fault budgets and cancellation.
#[derive(Clone, Default)]
pub struct Setup {
    /// Every tunable knob (parallelism, buffers, combine, partitioner,
    /// cache budget).
    pub config: EngineConfig,
    /// Fault-injection plan; disabled by default.
    pub faults: FaultPlan,
    /// Job-level cancellation: setting it tears down any in-flight job on a
    /// context built from this setup.
    pub cancel: CancelToken,
    /// Cross-job fragment cache and key: the first batch exchange on a built
    /// context looks the key up before computing and stores its verified
    /// output there on a miss.
    pub fragment: Option<FragmentHandle>,
}

impl Setup {
    /// The default configuration at `parallelism`, with no faults, a fresh
    /// cancel token and no fragment cache.
    pub fn new(parallelism: usize) -> Self {
        EngineConfig::with_parallelism(parallelism).into()
    }

    /// Builds the staged engine.
    pub fn spark(&self) -> SparkContext {
        SparkContext::build(self)
    }

    /// Builds the pipelined engine.
    pub fn flink(&self) -> FlinkEnv {
        FlinkEnv::build(self)
    }
}

impl From<EngineConfig> for Setup {
    fn from(config: EngineConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;

    /// Both engines take their knobs, fault plan and cancel token from one
    /// setup, and the token stays shared with the caller's copy.
    #[test]
    fn both_engines_take_every_field_of_one_setup() {
        let setup = Setup {
            config: EngineConfig {
                parallelism: 3,
                cache_bytes: 1 << 20,
                ..EngineConfig::default()
            },
            faults: FaultPlan::new(FaultConfig::chaos(7)),
            ..Setup::default()
        };
        let (sc, env) = (setup.spark(), setup.flink());
        assert_eq!(*sc.config(), setup.config);
        assert_eq!(*env.config(), setup.config);
        assert!(sc.faults().active() && env.faults().active());
        assert!(!sc.cancel_token().is_set());
        setup.cancel.set();
        assert!(sc.cancel_token().is_set() && env.cancel_token().is_set());
        assert!(!Setup::new(3).spark().faults().active());
    }
}
