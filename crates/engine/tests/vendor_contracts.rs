//! Contract tests for the offline `crossbeam` and `parking_lot` stand-ins
//! under `vendor/`. Vendored crates are not workspace members, so their
//! own unit tests never run with the workspace's; these pin, from the
//! engine's side, the behaviours its transports rely on:
//!
//! * `flink::Outbox::send` and the streaming `send_coop` treat a full
//!   bounded channel as backpressure and a dropped receiver as teardown;
//! * consumers (`recv_coop`, the exchange pumps, the `vertex_centric`
//!   mesh) drain everything sent before the last sender dropped, then end;
//! * `parking_lot::Mutex` never poisons and reports contention on
//!   `try_lock`.

use std::time::Duration;

use crossbeam::channel::{bounded, RecvTimeoutError, TrySendError};

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
