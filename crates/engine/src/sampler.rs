//! Live telemetry for real engine runs.
//!
//! The paper collects node metrics with a dstat-style monitor while jobs
//! run, then correlates them with the operator plan (§V). This module is
//! that monitor for the real engines: a background thread samples the
//! process (CPU from `/proc/self/stat`, memory from `/proc/self/statm`)
//! and the [`EngineMetrics`] counters (shuffle and spill bytes as I/O
//! proxies) into a [`ClusterTelemetry`], which plugs straight into
//! [`flowmark_core::correlate::correlate`] together with the engine's
//! [`flowmark_core::spans::PlanTrace`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flowmark_core::telemetry::{ClusterTelemetry, ResourceKind};

use crate::metrics::EngineMetrics;

/// Reads (utime+stime) clock ticks of this process.
fn process_cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // utime/stime are fields 14/15 (1-indexed); the comm field may contain
    // spaces, so split after the closing paren. After ')', the next field
    // is state (3), making utime the 12th and stime the 13th token.
    let rest = stat.rsplit(')').next()?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Resident set size in MiB.
fn process_rss_mib() -> Option<f64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: f64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096.0 / (1024.0 * 1024.0))
}

/// A running sampler; call [`Sampler::stop`] to collect the telemetry.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<ClusterTelemetry>,
}

impl Sampler {
    /// Starts sampling every `period` until stopped. The telemetry models
    /// the local machine as a one-node cluster.
    pub fn start(metrics: EngineMetrics, period: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let period_s = period.as_secs_f64();
            let mut telemetry = ClusterTelemetry::new(1, period_s);
            let started = Instant::now();
            let cores = std::thread::available_parallelism()
                .map(|n| n.get() as f64)
                .unwrap_or(1.0);
            let ticks_per_s = 100.0; // _SC_CLK_TCK default on Linux
            let mut last_ticks = process_cpu_ticks().unwrap_or(0);
            let mut last_shuffled = metrics.bytes_shuffled();
            let mut last_spilled = metrics.bytes_spilled();
            let mut last_t = 0.0f64;
            while !stop2.load(Ordering::Relaxed) {
                std::thread::sleep(period);
                let now = started.elapsed().as_secs_f64();
                let node = telemetry.node_mut(0);
                if let Some(ticks) = process_cpu_ticks() {
                    let cpu_s = (ticks.saturating_sub(last_ticks)) as f64 / ticks_per_s;
                    last_ticks = ticks;
                    // percent of all cores × seconds in this window
                    let pct_seconds = cpu_s / cores * 100.0;
                    node.deposit(ResourceKind::Cpu, last_t, now, pct_seconds);
                }
                if let Some(rss) = process_rss_mib() {
                    // Report RSS as "percent of 4 GiB" to stay in 0-100.
                    let pct = (rss / 4096.0 * 100.0).min(100.0);
                    node.deposit(ResourceKind::Memory, last_t, now, pct * (now - last_t));
                }
                let shuffled = metrics.bytes_shuffled();
                let spilled = metrics.bytes_spilled();
                let net_mib = (shuffled - last_shuffled) as f64 / (1024.0 * 1024.0);
                let spill_mib = (spilled - last_spilled) as f64 / (1024.0 * 1024.0);
                last_shuffled = shuffled;
                last_spilled = spilled;
                node.deposit(ResourceKind::Network, last_t, now, net_mib);
                node.deposit(ResourceKind::DiskIo, last_t, now, spill_mib);
                last_t = now;
            }
            telemetry
        });
        Self { stop, handle }
    }

    /// Stops sampling and returns the collected telemetry.
    pub fn stop(self) -> ClusterTelemetry {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("sampler thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmark_core::correlate::{correlate, CorrelationConfig};
    use flowmark_datagen::text::{TextGen, TextGenConfig};
    use flowmark_engine_test_reexports::*;

    // Local alias module so the test body reads like downstream code.
    mod flowmark_engine_test_reexports {
        pub use crate::spark::SparkContext;
    }

    #[test]
    fn sampler_captures_a_real_run() {
        let sc = SparkContext::new(4);
        let sampler = Sampler::start(sc.metrics().clone(), Duration::from_millis(20));
        // A real job with a shuffle, big enough to span several samples.
        let lines = TextGen::new(TextGenConfig::default(), 3).lines(60_000);
        let _ = sc
            .parallelize(lines, 4)
            .flat_map(|l| {
                l.split_whitespace()
                    .map(|w| (w.to_string(), 1u64))
                    .collect::<Vec<_>>()
            })
            .reduce_by_key(|a, b| *a += b)
            .collect();
        std::thread::sleep(Duration::from_millis(60));
        let telemetry = sampler.stop();
        assert!(telemetry.duration() > 0.0, "sampler collected nothing");
        // The run burned CPU and shuffled bytes; both channels saw it.
        let cpu = telemetry.mean_channel(ResourceKind::Cpu);
        assert!(
            cpu.summary().max > 0.0,
            "no CPU activity sampled: {:?}",
            cpu.summary()
        );
        let net = telemetry.mean_channel(ResourceKind::Network);
        assert!(net.integral() > 0.0, "no shuffle bytes sampled");

        // And the methodology applies end to end: correlate the engine's
        // span trace against the sampled telemetry.
        let trace = sc.trace();
        assert!(!trace.is_empty());
        let report = correlate(&trace, &telemetry, &CorrelationConfig::default());
        assert_eq!(report.profiles.len(), trace.len());
    }

    #[test]
    fn proc_readers_work_on_this_platform() {
        assert!(process_cpu_ticks().is_some(), "/proc/self/stat unreadable");
        assert!(process_rss_mib().unwrap() > 1.0, "RSS implausible");
    }
}
