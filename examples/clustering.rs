//! K-Means clustering: the paper's §VI-D workload, showing the two
//! iteration architectures side by side — driver-loop unrolling over a
//! persisted RDD vs a natively scheduled bulk iteration — plus the Fig 10
//! resource-usage reproduction from the simulator.
//!
//! ```text
//! cargo run --release --example clustering
//! ```

use flowmark_core::correlate::{correlate, CorrelationConfig};
use flowmark_core::report::render_correlation;
use flowmark_datagen::points::{PointsConfig, PointsGen};
use flowmark_engine::{FlinkEnv, SparkContext};
use flowmark_workloads::kmeans;

fn main() {
    let config = PointsConfig {
        clusters: 6,
        box_half_width: 500.0,
        sigma: 8.0,
    };
    let mut gen = PointsGen::new(config, 11);
    let truth = gen.true_centers().to_vec();
    let points = gen.points(60_000);
    // Deliberately perturbed starting centroids.
    let init: Vec<_> = truth
        .iter()
        .map(|c| flowmark_datagen::points::Point {
            x: c.x + 25.0,
            y: c.y - 25.0,
        })
        .collect();
    println!("clustering {} points around {} hidden centers, 10 iterations\n", points.len(), truth.len());

    // ---- staged engine: loop unrolling -------------------------------------
    let sc = SparkContext::new(8);
    let t = std::time::Instant::now();
    let spark_centers = kmeans::run_spark(&sc, points.clone(), init.clone(), 10, 8);
    println!(
        "staged engine:    converged in {:?} — {} task launches across 10 unrolled rounds",
        t.elapsed(),
        sc.metrics().tasks_launched()
    );

    // ---- pipelined engine: scheduled once -----------------------------------
    let env = FlinkEnv::new(8);
    let t = std::time::Instant::now();
    let flink_centers = kmeans::run_flink(&env, points.clone(), init.clone(), 10);
    println!(
        "pipelined engine: converged in {:?} — {} worker deployments for all 10 rounds",
        t.elapsed(),
        env.metrics().tasks_launched()
    );

    for (s, f) in spark_centers.iter().zip(&flink_centers) {
        assert!((s.x - f.x).abs() < 1e-9 && (s.y - f.y).abs() < 1e-9);
    }
    // Each learned center should sit near a true one.
    for c in &truth {
        let best = spark_centers
            .iter()
            .map(|p| p.dist2(c).sqrt())
            .fold(f64::INFINITY, f64::min);
        assert!(best < 3.0 * config.sigma, "missed a center by {best:.1}");
    }
    println!("identical centroids from both engines, all near the hidden truth ✓\n");

    // ---- Fig 10: K-Means resource usage at paper scale ---------------------
    use flowmark_core::config::Framework;
    use flowmark_sim::{simulate, Calibration};
    let cal = Calibration::default();
    let scale = kmeans::KMeansScale::paper();
    let run = flowmark_workloads::presets::kmeans_config(24);
    for fw in Framework::BOTH {
        let plan = kmeans::plan(fw, &scale);
        let r = simulate(&plan, fw, &run, &cal, 1).expect("valid");
        let report = correlate(&r.trace, &r.telemetry, &CorrelationConfig::default());
        println!("-- {fw} at 24 nodes, 1.2 B samples (Fig 10): {:.0}s", r.seconds);
        print!("{}", render_correlation(&report));
    }
}
