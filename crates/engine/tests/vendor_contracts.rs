//! Contract tests for the offline `crossbeam`, `parking_lot`, `serde`,
//! `serde_json` and `proptest` stand-ins under `vendor/`. Vendored crates
//! are not workspace members, so their own unit tests never run with the
//! workspace's; these pin, from the engine's side, the behaviours it
//! relies on:
//!
//! * `flink::Outbox::send` and the streaming `send_coop` treat a full
//!   bounded channel as backpressure and a dropped receiver as teardown;
//! * consumers (`recv_coop`, the exchange pumps, the `vertex_centric`
//!   mesh) drain everything sent before the last sender dropped, then end;
//! * `parking_lot::Mutex` never poisons and reports contention on
//!   `try_lock`;
//! * every drill report is written through `serde_json`: counters, configs,
//!   floats and strings come back exactly, and artifacts written before a
//!   `#[serde(default)]` field existed still parse;
//! * `proptest` draws the same cases for the same seed, so a failing case
//!   replays.

use std::time::Duration;

use crossbeam::channel::{bounded, RecvTimeoutError, TrySendError};
use flowmark_core::config::{EngineConfig, PartitionerChoice};
use flowmark_engine::metrics::{MetricsSnapshot, RecoverySnapshot};
use serde::{Deserialize, Serialize};

#[test]
fn try_send_is_full_at_capacity_then_disconnected_once_the_receiver_drops() {
    let (tx, rx) = bounded(2);
    assert!(tx.try_send(1).is_ok());
    assert!(tx.try_send(2).is_ok());
    assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
    assert_eq!(rx.recv(), Ok(1));
    assert!(tx.try_send(3).is_ok(), "a drained slot accepts again");
    drop(rx);
    assert!(matches!(tx.try_send(4), Err(TrySendError::Disconnected(4))));
    assert_eq!(
        tx.send(5).map_err(|e| e.0),
        Err(5),
        "send fails after the drop"
    );
}

#[test]
fn receivers_end_only_after_draining_once_every_sender_dropped() {
    let (tx, rx) = bounded(4);
    let tx2 = tx.clone();
    tx.send(1).unwrap();
    tx2.send(2).unwrap();
    drop(tx);
    assert_eq!(rx.recv(), Ok(1), "one sender left: the channel is live");
    tx2.send(3).unwrap();
    drop(tx2);
    assert_eq!(rx.iter().collect::<Vec<_>>(), vec![2, 3]);
    assert!(rx.recv().is_err());

    let (tx, rx) = bounded(1);
    tx.send(7).unwrap();
    drop(tx);
    assert_eq!(rx.recv(), Ok(7), "queued values outlive the senders");
    assert!(rx.recv().is_err());
}

#[test]
fn blocked_senders_wake_as_the_receiver_drains() {
    let (tx, rx) = bounded(1);
    std::thread::scope(|s| {
        s.spawn(move || (0..64).for_each(|i| tx.send(i).unwrap()));
        assert_eq!(rx.iter().collect::<Vec<_>>(), (0..64).collect::<Vec<_>>());
    });
}

#[test]
fn recv_timeout_times_out_then_reports_disconnect() {
    let (tx, rx) = bounded::<u8>(1);
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(1)),
        Err(RecvTimeoutError::Timeout)
    );
    tx.send(9).unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Ok(9));
    drop(tx);
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(1)),
        Err(RecvTimeoutError::Disconnected)
    );
}

#[test]
fn parking_lot_mutex_locks_reports_contention_and_never_poisons() {
    let m = parking_lot::Mutex::new(vec![1]);
    m.lock().push(2);
    {
        let _held = m.lock();
        assert!(m.try_lock().is_none(), "try_lock while held");
    }
    m.try_lock().expect("free again").push(3);

    let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _g = m.lock();
        panic!("holder dies");
    }));
    assert!(poisoned.is_err());
    m.lock().push(4);
    assert_eq!(m.into_inner(), vec![1, 2, 3, 4]);
}

/// `T::default()`'s compact JSON with every zero counter set to `u64::MAX`.
fn saturated<T: Default + Serialize>() -> String {
    let zeros = serde_json::to_string(&T::default()).unwrap();
    assert!(zeros.contains("\":0"), "{zeros}");
    zeros.replace("\":0", &format!("\":{}", u64::MAX))
}

#[test]
fn snapshots_with_every_counter_at_u64_max_round_trip_exactly() {
    let json = saturated::<MetricsSnapshot>();
    let max: MetricsSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(max.records_read, u64::MAX);
    assert_eq!(max.late_events_dropped, u64::MAX);
    assert_eq!(max.recovery.stream_checkpoints_restored, u64::MAX);
    assert_eq!(serde_json::to_string(&max).unwrap(), json);
    let pretty = serde_json::to_string_pretty(&max).unwrap();
    assert_eq!(
        serde_json::from_str::<MetricsSnapshot>(&pretty).unwrap(),
        max
    );

    let json = saturated::<RecoverySnapshot>();
    let max: RecoverySnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(max.injected_failures, u64::MAX);
    assert_eq!(serde_json::to_string(&max).unwrap(), json);
}

#[test]
fn engine_config_round_trips() {
    let config = EngineConfig {
        parallelism: 3,
        network_buffer_records: 17,
        combine_buffer_records: usize::MAX,
        spill_run_budget: 1,
        combine_enabled: false,
        partitioner: PartitionerChoice::Range,
        cache_bytes: u64::MAX,
        ..EngineConfig::default()
    };
    for c in [config, EngineConfig::default()] {
        let back: EngineConfig = serde_json::from_str(&serde_json::to_string(&c).unwrap()).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.fingerprint(), c.fingerprint());
    }
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Note {
    ratio: f64,
    floats: Vec<f64>,
    label: String,
}

#[test]
fn floats_and_awkward_strings_round_trip_unchanged() {
    let note = Note {
        ratio: 0.1,
        floats: vec![1.0 / 3.0, -2.5e-7, 1e21, f64::MAX, f64::MIN_POSITIVE, -0.0],
        label: "quote \" backslash \\ bell \u{7} nul \0 tab \t newline \n é 漢 🦀".into(),
    };
    for json in [
        serde_json::to_string(&note).unwrap(),
        serde_json::to_string_pretty(&note).unwrap(),
    ] {
        let back: Note = serde_json::from_str(&json).unwrap();
        assert_eq!(back, note, "{json}");
        assert!(back
            .floats
            .iter()
            .zip(&note.floats)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}

#[test]
fn recovery_json_missing_its_defaulted_fields_still_parses() {
    // The counters a chaos artifact carried before any `#[serde(default)]`
    // field existed.
    let required = [
        "injected_failures",
        "injected_stragglers",
        "task_retries",
        "partitions_recomputed",
        "region_restarts",
        "checkpoints_taken",
        "checkpoint_bytes",
        "speculative_launched",
        "speculative_wins",
        "memory_pressure_events",
        "pool_exhausted",
    ];
    let fields: Vec<String> = (1..)
        .zip(required)
        .map(|(n, name)| format!("\"{name}\": {n}"))
        .collect();
    let legacy: RecoverySnapshot =
        serde_json::from_str(&format!("{{{}}}", fields.join(", "))).unwrap();
    assert_eq!(legacy.injected_failures, 1);
    assert_eq!(legacy.pool_exhausted, 11);
    assert_eq!(legacy.tasks_cancelled, 0);
    assert_eq!(legacy.corruptions_detected, 0);
    assert_eq!(legacy.stream_checkpoints_restored, 0);

    let missing_required = format!("{{{}}}", fields[..10].join(", "));
    assert!(serde_json::from_str::<RecoverySnapshot>(&missing_required).is_err());
}

#[test]
fn proptest_draws_the_same_cases_for_the_same_seed() {
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    let strategy = (
        prop::collection::vec(any::<u64>(), 1..32),
        0u32..1000,
        -1.0f64..1.0,
    );
    let draw = |name: &str, case| strategy.sample(&mut TestRng::for_case(name, case));
    for case in 0..16 {
        assert_eq!(draw("contract", case), draw("contract", case));
    }
    assert_ne!(draw("contract", 3), draw("contract", 4));
    assert_ne!(draw("contract", 3), draw("other", 3));
}
