//! Serde contract for `HealthSnapshot`, the service state the soak and mix
//! reports embed beside `MetricsSnapshot`. It goes through the offline
//! `serde`/`serde_json` stand-ins under `vendor/`, whose own tests never run
//! with the workspace's, so this pins from the service's side what reports
//! rely on: a snapshot with several per-tenant `TenantHealth` ledgers, every
//! breaker state and counters at their limits comes back exactly, and a
//! report written before snapshots carried tenants still parses.

use flowmark_serve::{BreakerState, HealthSnapshot, TenantHealth};

fn snapshot(tenants: Vec<TenantHealth>) -> HealthSnapshot {
    HealthSnapshot {
        queue_depth: 3,
        in_flight: 2,
        budget_in_use_bytes: 96 << 20,
        budget_capacity_bytes: u64::MAX,
        spark_breaker: BreakerState::HalfOpen,
        flink_breaker: BreakerState::Open,
        jobs_admitted: 40,
        jobs_shed: 9,
        jobs_completed: 31,
        jobs_failed: 2,
        jobs_timed_out: 1,
        jobs_cancelled: 1,
        job_retries: 6,
        breaker_rejections: 4,
        tenants,
    }
}

#[test]
fn snapshot_with_tenant_ledgers_round_trips_exactly() {
    let ledgers = vec![
        TenantHealth {
            tenant: 0,
            queued: 2,
            in_flight: 1,
            budget_in_use_bytes: 64 << 20,
            admitted: 30,
            rejected: 7,
            completed: 24,
            queue_wait_micros: 1_250_000,
        },
        TenantHealth {
            tenant: u32::MAX,
            queued: usize::MAX,
            in_flight: 0,
            budget_in_use_bytes: u64::MAX,
            admitted: u64::MAX,
            rejected: 0,
            completed: u64::MAX - 1,
            queue_wait_micros: u64::MAX,
        },
        TenantHealth::default(),
    ];
    for snap in [snapshot(ledgers), snapshot(Vec::new())] {
        for json in [
            serde_json::to_string(&snap).unwrap(),
            serde_json::to_string_pretty(&snap).unwrap(),
        ] {
            let back: HealthSnapshot = serde_json::from_str(&json).unwrap();
            assert_eq!(back, snap, "{json}");
            assert_eq!(
                serde_json::to_string(&back).unwrap(),
                serde_json::to_string(&snap).unwrap()
            );
        }
    }
}

#[test]
fn every_breaker_state_round_trips() {
    for state in [
        BreakerState::Closed,
        BreakerState::Open,
        BreakerState::HalfOpen,
    ] {
        let mut snap = snapshot(Vec::new());
        snap.spark_breaker = state;
        snap.flink_breaker = state;
        let back: HealthSnapshot =
            serde_json::from_str(&serde_json::to_string(&snap).unwrap()).unwrap();
        assert_eq!((back.spark_breaker, back.flink_breaker), (state, state));
    }
}

#[test]
fn snapshot_json_without_tenant_fields_still_parses() {
    // A snapshot as reports wrote it before the service kept per-tenant
    // ledgers: no `tenants` key at all.
    let legacy = r#"{
        "queue_depth": 0,
        "in_flight": 0,
        "budget_in_use_bytes": 0,
        "budget_capacity_bytes": 1073741824,
        "spark_breaker": "Closed",
        "flink_breaker": "Open",
        "jobs_admitted": 5,
        "jobs_shed": 2,
        "jobs_completed": 3,
        "jobs_failed": 1,
        "jobs_timed_out": 1,
        "jobs_cancelled": 0,
        "job_retries": 4,
        "breaker_rejections": 1
    }"#;
    let back: HealthSnapshot = serde_json::from_str(legacy).unwrap();
    assert!(back.tenants.is_empty());
    assert_eq!(back.flink_breaker, BreakerState::Open);
    assert_eq!(back.budget_capacity_bytes, 1 << 30);
    assert!(back.drained(), "every admitted job is accounted for");

    let missing_required = legacy.replace("\"breaker_rejections\": 1", "\"jobs_shed_twice\": 1");
    assert!(serde_json::from_str::<HealthSnapshot>(&missing_required).is_err());
}
