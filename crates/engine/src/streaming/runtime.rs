//! Checkpointed streaming runtimes: exactly-once under chaos.
//!
//! Two runtimes execute the same `(source, operator)` job:
//!
//! - [`run_continuous_checkpointed`] — pipelined. A source thread
//!   routes events to `parallelism` task threads over bounded channels
//!   in slabs (watermarks in-band) and broadcasts `Barrier` control
//!   messages at fixed stream positions (the `flink::Msg::Barrier`
//!   pattern). A task sends everything one slab produced — batch folds
//!   and window firings alike — to a transactional sink as a single
//!   `SinkMsg::Items`. Tasks snapshot operator state when a barrier
//!   arrives — sealed with an xxHash64 digest under the fault plan's
//!   checksum seed — and forward the barrier to the sink.
//! - [`run_micro_batch_checkpointed`] — discretized: the driver
//!   processes events sequentially and treats every checkpoint interval
//!   as one batch, checkpointing at batch boundaries.
//!
//! Because watermarks and barriers are assigned by *position in the
//! global event order* (never by wall clock), the two runtimes commit
//! byte-identical output sequences — one deterministic oracle verifies
//! both.
//!
//! ## Failure and recovery
//!
//! Faults arrive through the [`FaultPlan`]: seeded kills and stragglers
//! per `(stage, partition, attempt)`, plus checkpoint rot injected at
//! *read* time. On any task/source/sink panic the attempt tears down
//! (first panic wins, siblings drain cooperatively), and the job
//! restarts from the newest complete checkpoint whose every per-task
//! digest still verifies — rotten snapshots are rejected
//! (`checkpoints_rejected`, `corruptions_detected`) and the walk
//! continues downward. The source then replays the stream from index
//! zero, silently skipping the restored prefix; the sink refuses to
//! commit any epoch at or below the last committed one, so replayed
//! results are suppressed and every window result is emitted exactly
//! once.
//!
//! A **bootstrap barrier** (`Barrier(start)`) precedes the first event
//! of every attempt, so a complete, digest-sealed checkpoint exists
//! before any fault can fire — recovery always has a floor to stand on.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};

use flowmark_columnar::checksum::Xxh64;

use crate::faults::{check_cancelled, CancelToken, FaultPlan, JobCancelled, StreamFault};
use crate::metrics::EngineMetrics;

use super::source::{SourceConfig, StreamSource};
use super::window::StreamOperator;

/// Checkpoint interval (events per epoch) when the fault plan does not
/// set `checkpoint_interval_records`.
const DEFAULT_INTERVAL: u64 = 64;
/// Poll slice for cooperative receive loops (checks the shared failure
/// flag between waits).
const POLL: Duration = Duration::from_millis(2);

/// Deployment shape of a streaming job.
#[derive(Debug, Clone)]
pub struct StreamJobConfig {
    /// Task parallelism (≥ 1). Events are routed by `route(payload) %
    /// parallelism`.
    pub parallelism: usize,
    /// Bounded channel capacity per task (continuous runtime only).
    pub channel_capacity: usize,
    /// Base stage id for fault addressing: the source is `stage`, tasks
    /// are `stage + 1`.
    pub stage: u64,
    /// Watermark-lag gauge (`frontier − watermark`, in ticks), updated
    /// at every watermark decision — the serve layer's liveness SLO
    /// polls this.
    pub lag_gauge: Option<Arc<AtomicU64>>,
    /// Events per transport slab on the batch-native path. Events headed
    /// for the same task accumulate into a slab that is sent (and folded
    /// via [`StreamOperator::on_batch`]) as one unit. Watermarks ride
    /// *inside* the slab as [`SlabEntry::Watermark`] at their exact
    /// stream position, so slabs span watermark ticks and only barriers
    /// (and stream end) force a flush; per-partition ordering of events
    /// and watermarks — and therefore every committed `(epoch, result)`
    /// — is byte-identical to the record path. `<= 1` selects the legacy
    /// event-at-a-time transport (the per-event A/B reference).
    pub slab_rows: usize,
}

impl Default for StreamJobConfig {
    fn default() -> Self {
        Self {
            parallelism: 2,
            channel_capacity: 256,
            stage: 900,
            lag_gauge: None,
            slab_rows: flowmark_columnar::DEFAULT_BATCH_ROWS,
        }
    }
}

/// What a streaming run committed.
#[derive(Debug, Clone)]
pub struct StreamRunResult<Out> {
    /// Every committed output, tagged with the epoch that committed it,
    /// in commit order (epoch, then partition, then generation order).
    /// Deterministic: identical across runtimes and across replays.
    pub committed: Vec<(u64, Out)>,
    /// Highest committed epoch.
    pub epochs_committed: u64,
}

/// One task's sealed checkpoint snapshot.
struct TaskSnapshot<S> {
    state: S,
    watermark: u64,
    frontier: u64,
    digest: u64,
}

/// Checkpoint store: `ckpt id → per-task snapshot slots`. A checkpoint
/// is complete when every slot is filled.
type Store<S> = BTreeMap<u64, Vec<Option<TaskSnapshot<S>>>>;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Seals a snapshot: digest over `(ckpt, partition, watermark,
/// frontier, state)` under the plan's checksum seed. Returns the digest
/// and the number of bytes hashed.
fn seal<Op: StreamOperator>(
    seed: u64,
    ckpt: u64,
    part: usize,
    watermark: u64,
    frontier: u64,
    state: &Op::State,
) -> (u64, u64) {
    let mut h = Xxh64::new(seed);
    h.write_u64(ckpt);
    h.write_u64(part as u64);
    h.write_u64(watermark);
    h.write_u64(frontier);
    Op::write_state(state, &mut h);
    let bytes = h.bytes_written();
    (h.finish(), bytes)
}

/// Stores one task's snapshot for checkpoint `ckpt`.
fn snapshot_task<Op: StreamOperator>(
    store: &Mutex<Store<Op::State>>,
    metrics: &EngineMetrics,
    seed: u64,
    parts: usize,
    ckpt: u64,
    part: usize,
    watermark: u64,
    frontier: u64,
    state: Op::State,
) {
    let (digest, bytes) = seal::<Op>(seed, ckpt, part, watermark, frontier, &state);
    metrics.add_checkpoint_bytes(bytes);
    metrics.add_batches_checksummed(1);
    let mut g = lock(store);
    let slots = g.entry(ckpt).or_insert_with(|| {
        let mut v = Vec::new();
        v.resize_with(parts, || None);
        v
    });
    slots[part] = Some(TaskSnapshot {
        state,
        watermark,
        frontier,
        digest,
    });
}

/// Re-digests a stored snapshot, applying the plan's read-time rot
/// decision to the *stored* digest (rot models bytes decaying at rest —
/// it is injected when the snapshot is read back, and detected because
/// the recomputed digest no longer matches).
fn snapshot_rotten<Op: StreamOperator>(
    snaps: &[Option<TaskSnapshot<Op::State>>],
    plan: &FaultPlan,
    stage: u64,
    seed: u64,
    ckpt: u64,
    attempt: u32,
) -> bool {
    for (p, slot) in snaps.iter().enumerate() {
        let Some(s) = slot.as_ref() else {
            return true;
        };
        let mut stored = s.digest;
        if plan.checkpoint_rot_decision(stage, p, ckpt, attempt) {
            stored ^= 1 << (p as u64 % 63);
        }
        let (recomputed, _) = seal::<Op>(seed, ckpt, p, s.watermark, s.frontier, &s.state);
        if recomputed != stored {
            return true;
        }
    }
    false
}

/// Background integrity scrub, run whenever checkpoint `completed`
/// finishes: re-verify the previous complete checkpoint and evict it if
/// its digests no longer match. This is what guarantees an armed
/// corruption budget fires even when the kill lands before any restore
/// walk happens.
fn scrub_previous<Op: StreamOperator>(
    store: &Mutex<Store<Op::State>>,
    plan: &FaultPlan,
    metrics: &EngineMetrics,
    stage: u64,
    seed: u64,
    attempt: u32,
    completed: u64,
) {
    if !plan.active() {
        return;
    }
    let mut g = lock(store);
    let Some(&prev) = g.range(..completed).next_back().map(|(k, _)| k) else {
        return;
    };
    let Some(snaps) = g.get(&prev) else { return };
    if snaps.iter().any(Option::is_none) {
        return;
    }
    metrics.add_integrity_recomputes(1);
    if snapshot_rotten::<Op>(snaps, plan, stage, seed, prev, attempt) {
        metrics.add_corruptions_detected(1);
        metrics.add_checkpoints_rejected(1);
        g.remove(&prev);
    }
}

/// Picks the newest complete checkpoint whose digests all verify,
/// evicting incomplete and rotten candidates along the way. `None`
/// means no clean checkpoint survives — restart from scratch.
///
/// Candidates newer than `committed_floor` (the sink's last committed
/// epoch) are discarded too: tasks snapshot barrier `k` *before* the
/// sink has gathered every barrier `k` and committed the epoch, so a
/// failure in that window leaves a complete, clean snapshot whose
/// outputs were never committed. Restoring from it would skip the
/// replay that regenerates them — silent data loss. Replay from the
/// committed floor recreates both the snapshot and the outputs.
fn select_restore_point<Op: StreamOperator>(
    store: &Mutex<Store<Op::State>>,
    plan: &FaultPlan,
    metrics: &EngineMetrics,
    stage: u64,
    seed: u64,
    attempt: u32,
    committed_floor: u64,
) -> Option<u64> {
    let mut g = lock(store);
    loop {
        let k = *g.keys().next_back()?;
        if k > committed_floor {
            g.remove(&k);
            continue;
        }
        let torn = g
            .get(&k)
            .map(|snaps| snaps.iter().any(Option::is_none))
            .unwrap_or(true);
        if torn {
            // A barrier some task never reached — a torn checkpoint, not
            // a corruption.
            g.remove(&k);
            continue;
        }
        metrics.add_integrity_recomputes(1);
        let rotten = g
            .get(&k)
            .map(|snaps| snapshot_rotten::<Op>(snaps, plan, stage, seed, k, attempt))
            .unwrap_or(true);
        if rotten {
            metrics.add_corruptions_detected(1);
            metrics.add_checkpoints_rejected(1);
            g.remove(&k);
            continue;
        }
        return Some(k);
    }
}

/// Appends epoch `k`'s buffered outputs to the committed log — unless
/// `k` is at or below the last committed epoch (a replayed prefix after
/// recovery), in which case the regenerated outputs are suppressed.
fn commit_epoch<Out>(
    k: u64,
    pending: &mut BTreeMap<u64, Vec<Vec<Out>>>,
    committed: &Mutex<Vec<(u64, Out)>>,
    last_committed: &AtomicU64,
    metrics: &EngineMetrics,
) {
    let outs = pending.remove(&k).unwrap_or_default();
    let mut log = lock(committed);
    if k > last_committed.load(Ordering::Acquire) {
        for part_outs in outs {
            for o in part_outs {
                log.push((k, o));
            }
        }
        last_committed.store(k, Ordering::Release);
        metrics.add_checkpoints_taken(1);
    }
}

fn remember_panic(slot: &Mutex<Option<Box<dyn Any + Send>>>, payload: Box<dyn Any + Send>) {
    let mut g = lock(slot);
    if g.is_none() {
        *g = Some(payload);
    }
}

/// Cooperative bounded send: spins (with a backpressure count on first
/// block) until delivered, the attempt fails, or the receiver is gone.
fn send_coop<M>(tx: &Sender<M>, msg: M, failed: &AtomicBool, metrics: &EngineMetrics) -> bool {
    let mut msg = msg;
    let mut blocked = false;
    loop {
        if failed.load(Ordering::Acquire) {
            return false;
        }
        match tx.try_send(msg) {
            Ok(()) => return true,
            Err(TrySendError::Full(m)) => {
                if !blocked {
                    blocked = true;
                    metrics.add_backpressure_waits(1);
                }
                msg = m;
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(TrySendError::Disconnected(_)) => return false,
        }
    }
}

/// Cooperative receive: `None` once the attempt failed or the channel
/// closed.
fn recv_coop<M>(rx: &Receiver<M>, failed: &AtomicBool) -> Option<M> {
    loop {
        match rx.recv_timeout(POLL) {
            Ok(m) => return Some(m),
            Err(RecvTimeoutError::Timeout) => {
                if failed.load(Ordering::Acquire) {
                    return None;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return None,
        }
    }
}

/// One entry of a routed slab: events in arrival order, with watermark
/// advances carried *in-band* at their exact stream position — so a slab
/// can span watermark ticks (only barriers force a flush) while the task
/// replays the identical event/watermark interleaving the per-event
/// transport delivers.
enum SlabEntry<T> {
    Event(super::StreamEvent<T>),
    Watermark(u64),
}

/// Control-plane messages on a task's input channel.
enum TaskMsg<T> {
    Event(super::StreamEvent<T>),
    /// A slab of routed events and in-band watermarks (batch-native
    /// transport): one channel send and one [`StreamOperator::on_batch`]
    /// fold per uninterrupted event run.
    Events(Vec<SlabEntry<T>>),
    Watermark(u64),
    Barrier(u64),
    Done,
}

/// Messages into the transactional sink, tagged with the producing
/// partition.
enum SinkMsg<Out> {
    /// Everything one task message produced (a whole slab on the
    /// batch-native transport), appended to the epoch buffer in
    /// generation order.
    Items(usize, Vec<Out>),
    Barrier(usize, u64),
    Done(usize),
}

fn stalled(cfg: &SourceConfig, emitted: u64) -> bool {
    cfg.stall_watermark_after.is_some_and(|cut| emitted > cut)
}

/// Classifies a recovery step shared by both runtimes: rethrows
/// cancellations and exhausted attempts, otherwise picks the restore
/// point and backs off.
#[allow(clippy::too_many_arguments)]
fn recover_or_rethrow<Op: StreamOperator>(
    payload: Box<dyn Any + Send>,
    attempt: &mut u32,
    max_attempts: u32,
    store: &Mutex<Store<Op::State>>,
    plan: &FaultPlan,
    metrics: &EngineMetrics,
    stage_op: u64,
    seed: u64,
    cancel: &CancelToken,
    committed_floor: u64,
) -> Option<u64> {
    if payload.downcast_ref::<JobCancelled>().is_some() {
        resume_unwind(payload);
    }
    let failed_attempt = *attempt;
    *attempt += 1;
    if *attempt >= max_attempts {
        resume_unwind(payload);
    }
    metrics.add_task_retries(1);
    metrics.add_region_restarts(1);
    let restore = select_restore_point::<Op>(
        store,
        plan,
        metrics,
        stage_op,
        seed,
        failed_attempt,
        committed_floor,
    );
    cancel.sleep(plan.backoff(*attempt));
    restore
}

/// Runs a streaming job record-at-a-time with channel-aligned
/// checkpoints: source thread → `parallelism` task threads →
/// transactional sink. See the module docs for the recovery contract.
pub fn run_continuous_checkpointed<Op, F>(
    source: &StreamSource<Op::In>,
    make_op: F,
    route: fn(&Op::In) -> u64,
    cfg: &StreamJobConfig,
    plan: &FaultPlan,
    metrics: &EngineMetrics,
    cancel: &CancelToken,
) -> StreamRunResult<Op::Out>
where
    Op: StreamOperator,
    F: Fn(usize) -> Op + Sync,
{
    let parts = cfg.parallelism.max(1);
    let interval = match plan.checkpoint_interval_records() {
        0 => DEFAULT_INTERVAL,
        n => n,
    };
    let n = source.events.len() as u64;
    let final_epoch = n / interval + 1;
    let seed = plan.checksum_seed();
    let (stage_src, stage_op) = (cfg.stage, cfg.stage + 1);
    let max_attempts = plan.max_attempts().max(1);

    let store: Mutex<Store<Op::State>> = Mutex::new(BTreeMap::new());
    let committed: Mutex<Vec<(u64, Op::Out)>> = Mutex::new(Vec::new());
    let last_committed = AtomicU64::new(0);
    let mut restore_from: Option<u64> = None;
    let mut attempt = 0u32;
    let make_op = &make_op;

    loop {
        let failed = Arc::new(AtomicBool::new(false));
        let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let start = restore_from.unwrap_or(0);

        // Deterministic fault arming order: tasks 0..P, then the source.
        let mut task_faults: Vec<StreamFault> = (0..parts)
            .map(|p| plan.stream_fault(metrics, stage_op, p, attempt, Arc::clone(&failed)))
            .collect();
        let mut src_fault =
            plan.stream_fault(metrics, stage_src, parts, attempt, Arc::clone(&failed));

        // Clone restored state out of the store before spawning.
        let restored: Vec<Option<(Op::State, u64, u64)>> = match restore_from {
            Some(g) => {
                let st = lock(&store);
                (0..parts)
                    .map(|p| {
                        st.get(&g).and_then(|snaps| {
                            snaps[p]
                                .as_ref()
                                .map(|s| (s.state.clone(), s.watermark, s.frontier))
                        })
                    })
                    .collect()
            }
            None => (0..parts).map(|_| None).collect(),
        };

        let (sink_tx, sink_rx) = bounded::<SinkMsg<Op::Out>>(cfg.channel_capacity.max(1) * parts);
        let mut txs = Vec::with_capacity(parts);
        let mut rxs = Vec::with_capacity(parts);
        for _ in 0..parts {
            let (tx, rx) = bounded::<TaskMsg<Op::In>>(cfg.channel_capacity.max(1));
            txs.push(tx);
            rxs.push(rx);
        }

        std::thread::scope(|s| {
            // Transactional sink.
            {
                let failed = Arc::clone(&failed);
                let first_panic = &first_panic;
                let store = &store;
                let committed = &committed;
                let last_committed = &last_committed;
                s.spawn(move || {
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        sink_loop::<Op>(
                            &sink_rx,
                            parts,
                            start,
                            committed,
                            last_committed,
                            store,
                            plan,
                            attempt,
                            seed,
                            stage_op,
                            &failed,
                            metrics,
                        );
                    }));
                    if let Err(p) = r {
                        failed.store(true, Ordering::Release);
                        remember_panic(first_panic, p);
                    }
                });
            }
            // Window tasks.
            for (p, (rx, (mut fault, restored_p))) in rxs
                .drain(..)
                .zip(task_faults.drain(..).zip(restored.into_iter()))
                .enumerate()
            {
                let sink_tx = sink_tx.clone();
                let failed = Arc::clone(&failed);
                let first_panic = &first_panic;
                let store = &store;
                s.spawn(move || {
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        let mut op = make_op(p);
                        task_loop(
                            &mut op, p, &rx, &sink_tx, restored_p, store, parts, seed,
                            &mut fault, &failed, cancel, metrics, stage_op,
                        );
                    }));
                    if let Err(pl) = r {
                        failed.store(true, Ordering::Release);
                        remember_panic(first_panic, pl);
                    }
                });
            }
            drop(sink_tx);
            // Source runs on the scope's own thread.
            let r = catch_unwind(AssertUnwindSafe(|| {
                source_loop(
                    source, route, &txs, start, interval, final_epoch, cfg.slab_rows,
                    &mut src_fault, &failed, cancel, metrics, stage_src,
                    cfg.lag_gauge.as_ref(),
                );
            }));
            if let Err(p) = r {
                failed.store(true, Ordering::Release);
                remember_panic(&first_panic, p);
            }
            txs.clear();
        });

        let payload = lock(&first_panic).take();
        match payload {
            None => {
                return StreamRunResult {
                    committed: std::mem::take(&mut *lock(&committed)),
                    epochs_committed: last_committed.load(Ordering::Acquire),
                };
            }
            Some(payload) => {
                restore_from = recover_or_rethrow::<Op>(
                    payload,
                    &mut attempt,
                    max_attempts,
                    &store,
                    plan,
                    metrics,
                    stage_op,
                    seed,
                    cancel,
                    last_committed.load(Ordering::Acquire),
                );
            }
        }
    }
}

/// Flushes every non-empty routing slab as one [`TaskMsg::Events`] send.
/// Called before barrier broadcasts (and at stream end) so barriers never
/// overtake the events they follow in stream order; watermarks ride
/// inside the slab as [`SlabEntry::Watermark`] and need no flush.
fn flush_slabs<T: Clone + Send>(
    slabs: &mut [Vec<SlabEntry<T>>],
    txs: &[Sender<TaskMsg<T>>],
    failed: &AtomicBool,
    metrics: &EngineMetrics,
) -> bool {
    for (p, slab) in slabs.iter_mut().enumerate() {
        if slab.is_empty() {
            continue;
        }
        if !send_coop(&txs[p], TaskMsg::Events(std::mem::take(slab)), failed, metrics) {
            return false;
        }
    }
    true
}

/// Source thread body: replays the event vector, skipping the restored
/// prefix, broadcasting watermarks and barriers at fixed positions.
#[allow(clippy::too_many_arguments)]
fn source_loop<T: Clone + Send>(
    src: &StreamSource<T>,
    route: fn(&T) -> u64,
    txs: &[Sender<TaskMsg<T>>],
    start: u64,
    interval: u64,
    final_epoch: u64,
    slab_rows: usize,
    fault: &mut StreamFault,
    failed: &AtomicBool,
    cancel: &CancelToken,
    metrics: &EngineMetrics,
    stage: u64,
    lag_gauge: Option<&Arc<AtomicU64>>,
) {
    let cfg = &src.config;
    let wm_every = cfg.watermark_every.max(1);
    let parts = txs.len();
    let skip = (start * interval).min(src.events.len() as u64);
    let mut frontier = 0u64;
    let mut wm = 0u64;
    let slabbed = slab_rows > 1;
    let mut slabs: Vec<Vec<SlabEntry<T>>> = (0..parts).map(|_| Vec::new()).collect();

    // Bootstrap barrier: seal the starting state before any event.
    for tx in txs {
        if !send_coop(tx, TaskMsg::Barrier(start), failed, metrics) {
            return;
        }
    }
    for (idx, ev) in src.events.iter().enumerate() {
        let idx = idx as u64;
        let emitted = idx + 1;
        if idx < skip {
            // Silent replay of the restored prefix: fold the watermark
            // state the restored tasks already embody, send nothing.
            frontier = frontier.max(ev.time);
            if emitted % wm_every == 0 && !stalled(cfg, emitted) {
                wm = frontier.saturating_sub(cfg.allowance);
            }
            continue;
        }
        check_cancelled(cancel, metrics, stage, parts);
        fault.on_event();
        frontier = frontier.max(ev.time);
        let p = (route(&ev.payload) % parts as u64) as usize;
        metrics.add_records_read(1);
        if slabbed {
            slabs[p].push(SlabEntry::Event(ev.clone()));
            if slabs[p].len() >= slab_rows
                && !send_coop(
                    &txs[p],
                    TaskMsg::Events(std::mem::take(&mut slabs[p])),
                    failed,
                    metrics,
                )
            {
                return;
            }
        } else if !send_coop(&txs[p], TaskMsg::Event(ev.clone()), failed, metrics) {
            return;
        }
        if emitted % wm_every == 0 {
            if !stalled(cfg, emitted) {
                wm = frontier.saturating_sub(cfg.allowance);
            }
            if let Some(g) = lag_gauge {
                g.store(frontier.saturating_sub(wm), Ordering::Release);
            }
            if slabbed {
                // In-band: the watermark rides inside every partition's
                // slab at its exact stream position, so slabs keep
                // growing across watermark ticks and only barriers (and
                // stream end) force a flush.
                for slab in &mut slabs {
                    slab.push(SlabEntry::Watermark(wm));
                }
            } else {
                for tx in txs {
                    if !send_coop(tx, TaskMsg::Watermark(wm), failed, metrics) {
                        return;
                    }
                }
            }
        }
        if emitted % interval == 0 {
            if !flush_slabs(&mut slabs, txs, failed, metrics) {
                return;
            }
            for tx in txs {
                if !send_coop(tx, TaskMsg::Barrier(emitted / interval), failed, metrics) {
                    return;
                }
            }
        }
    }
    if !flush_slabs(&mut slabs, txs, failed, metrics) {
        return;
    }
    fault.on_finish();
    if cfg.hold_at_end {
        // A long-running tenant: park cancellably with the lag gauge
        // live. Only a cancel (deadline, SLO watchdog) or a sibling
        // failure ends the job.
        loop {
            check_cancelled(cancel, metrics, stage, parts);
            if failed.load(Ordering::Acquire) {
                return;
            }
            if let Some(g) = lag_gauge {
                g.store(frontier.saturating_sub(wm), Ordering::Release);
            }
            std::thread::sleep(POLL);
        }
    }
    // Final flush: a MAX watermark fires every open window, the final
    // barrier commits the flush epoch, Done closes the stream.
    for tx in txs {
        if !send_coop(tx, TaskMsg::Watermark(u64::MAX), failed, metrics) {
            return;
        }
    }
    for tx in txs {
        if !send_coop(tx, TaskMsg::Barrier(final_epoch), failed, metrics) {
            return;
        }
    }
    for tx in txs {
        let _ = send_coop(tx, TaskMsg::Done, failed, metrics);
    }
}

/// Task thread body: folds events, fires windows on watermarks, seals
/// snapshots on barriers. After a sibling failure it keeps *draining*
/// buffered messages (alignment: a snapshot at barrier `k` must reflect
/// every event before `k` in channel order) but stops forwarding.
#[allow(clippy::too_many_arguments)]
fn task_loop<Op: StreamOperator>(
    op: &mut Op,
    part: usize,
    rx: &Receiver<TaskMsg<Op::In>>,
    sink: &Sender<SinkMsg<Op::Out>>,
    restored: Option<(Op::State, u64, u64)>,
    store: &Mutex<Store<Op::State>>,
    parts: usize,
    seed: u64,
    fault: &mut StreamFault,
    failed: &AtomicBool,
    cancel: &CancelToken,
    metrics: &EngineMetrics,
    stage: u64,
) {
    let mut watermark = 0u64;
    let mut frontier = 0u64;
    if let Some((state, wm, fr)) = restored {
        op.restore(state);
        watermark = wm;
        frontier = fr;
        metrics.add_stream_checkpoints_restored(1);
    }
    metrics.add_tasks_launched(1);
    // Everything one message produces — a whole slab's `on_batch` runs
    // and watermark firings, or one per-event callback — collects here
    // and reaches the sink as a single `SinkMsg::Items`. Slabs end at
    // barriers, so every output still lands in the epoch it was made in.
    let mut buf: Vec<Op::Out> = Vec::new();
    let mut run: Vec<super::StreamEvent<Op::In>> = Vec::new();
    let mut live = true;
    loop {
        let msg = if live {
            match recv_coop(rx, failed) {
                Some(m) => m,
                None => {
                    live = false;
                    continue;
                }
            }
        } else {
            match rx.try_recv() {
                Ok(m) => m,
                Err(_) => break,
            }
        };
        match msg {
            TaskMsg::Event(ev) => {
                if live {
                    check_cancelled(cancel, metrics, stage, part);
                    fault.on_event();
                }
                if ev.time < watermark {
                    metrics.add_late_events_dropped(1);
                    continue;
                }
                if ev.time < frontier {
                    metrics.add_watermark_lag_events(1);
                }
                frontier = frontier.max(ev.time);
                op.on_event(&ev, &mut buf);
                metrics.add_compute_calls(1);
            }
            TaskMsg::Events(slab) => {
                if live {
                    check_cancelled(cancel, metrics, stage, part);
                }
                metrics.add_stream_batches(1);
                // Events between two in-band watermarks form a *run* that
                // folds batch-at-a-time; each watermark first folds the
                // pending run, then fires windows exactly as the record
                // transport's broadcast watermark would at that position.
                for entry in slab {
                    match entry {
                        SlabEntry::Event(ev) => {
                            if live {
                                // Per-event fault arming keeps kill
                                // positions identical to the record
                                // transport; recovery replays the slab
                                // whole from the sealed snapshot.
                                fault.on_event();
                            }
                            if ev.time < watermark {
                                metrics.add_late_events_dropped(1);
                                continue;
                            }
                            if ev.time < frontier {
                                metrics.add_watermark_lag_events(1);
                            }
                            frontier = frontier.max(ev.time);
                            run.push(ev);
                        }
                        SlabEntry::Watermark(w) => {
                            fold_run(op, &mut run, &mut buf, metrics);
                            fire(op, w, &mut watermark, &mut buf, metrics);
                        }
                    }
                }
                fold_run(op, &mut run, &mut buf, metrics);
            }
            TaskMsg::Watermark(w) => fire(op, w, &mut watermark, &mut buf, metrics),
            TaskMsg::Barrier(k) => {
                snapshot_task::<Op>(
                    store, metrics, seed, parts, k, part, watermark, frontier,
                    op.state(),
                );
                if live && !send_coop(sink, SinkMsg::Barrier(part, k), failed, metrics) {
                    live = false;
                }
            }
            TaskMsg::Done => {
                if live {
                    let _ = send_coop(sink, SinkMsg::Done(part), failed, metrics);
                }
                break;
            }
        }
        if !buf.is_empty() {
            let outs = std::mem::take(&mut buf);
            if live && !send_coop(sink, SinkMsg::Items(part, outs), failed, metrics) {
                live = false;
            }
        }
    }
}

/// Folds a task's pending event run through [`StreamOperator::on_batch`]
/// and empties it.
fn fold_run<Op: StreamOperator>(
    op: &mut Op,
    run: &mut Vec<super::StreamEvent<Op::In>>,
    buf: &mut Vec<Op::Out>,
    metrics: &EngineMetrics,
) {
    if run.is_empty() {
        return;
    }
    op.on_batch(run, buf);
    metrics.add_compute_calls(run.len() as u64);
    run.clear();
}

/// Advances a partition's watermark to `w` if it moves forward, appending
/// the windows that fire to `buf` and counting only those.
fn fire<Op: StreamOperator>(
    op: &mut Op,
    w: u64,
    watermark: &mut u64,
    buf: &mut Vec<Op::Out>,
    metrics: &EngineMetrics,
) {
    if w > *watermark {
        *watermark = w;
        let before = buf.len();
        op.on_watermark(w, buf);
        metrics.add_windows_emitted((buf.len() - before) as u64);
    }
}

/// Transactional sink body: buffers outputs per epoch, commits an epoch
/// when its barrier has arrived from every task, suppresses replayed
/// epochs, and scrubs the previous checkpoint after each completion.
#[allow(clippy::too_many_arguments)]
fn sink_loop<Op: StreamOperator>(
    rx: &Receiver<SinkMsg<Op::Out>>,
    parts: usize,
    start: u64,
    committed: &Mutex<Vec<(u64, Op::Out)>>,
    last_committed: &AtomicU64,
    store: &Mutex<Store<Op::State>>,
    plan: &FaultPlan,
    attempt: u32,
    seed: u64,
    stage_op: u64,
    failed: &AtomicBool,
    metrics: &EngineMetrics,
) {
    let mut cur = vec![start; parts];
    let mut pending: BTreeMap<u64, Vec<Vec<Op::Out>>> = BTreeMap::new();
    let mut done = vec![false; parts];
    while let Some(msg) = recv_coop(rx, failed) {
        match msg {
            SinkMsg::Items(p, mut outs) => {
                pending
                    .entry(cur[p])
                    .or_insert_with(|| (0..parts).map(|_| Vec::new()).collect())[p]
                    .append(&mut outs);
            }
            SinkMsg::Barrier(p, k) => {
                debug_assert_eq!(k, cur[p], "barrier misalignment on partition {p}");
                cur[p] = k + 1;
                if cur.iter().all(|&c| c > k) {
                    commit_epoch(k, &mut pending, committed, last_committed, metrics);
                    scrub_previous::<Op>(store, plan, metrics, stage_op, seed, attempt, k);
                }
            }
            SinkMsg::Done(p) => {
                done[p] = true;
                if done.iter().all(|&d| d) {
                    break;
                }
            }
        }
    }
}

/// Runs the same job discretized: the driver processes events
/// sequentially, one checkpoint interval per micro-batch, snapshotting
/// and committing at every batch boundary. Commits are byte-identical
/// to [`run_continuous_checkpointed`] on the same source.
pub fn run_micro_batch_checkpointed<Op, F>(
    source: &StreamSource<Op::In>,
    make_op: F,
    route: fn(&Op::In) -> u64,
    cfg: &StreamJobConfig,
    plan: &FaultPlan,
    metrics: &EngineMetrics,
    cancel: &CancelToken,
) -> StreamRunResult<Op::Out>
where
    Op: StreamOperator,
    F: Fn(usize) -> Op,
{
    let parts = cfg.parallelism.max(1);
    let interval = match plan.checkpoint_interval_records() {
        0 => DEFAULT_INTERVAL,
        n => n,
    };
    let n = source.events.len() as u64;
    let final_epoch = n / interval + 1;
    let seed = plan.checksum_seed();
    let (stage_src, stage_op) = (cfg.stage, cfg.stage + 1);
    let max_attempts = plan.max_attempts().max(1);
    let scfg = &source.config;
    let wm_every = scfg.watermark_every.max(1);

    let store: Mutex<Store<Op::State>> = Mutex::new(BTreeMap::new());
    let committed: Mutex<Vec<(u64, Op::Out)>> = Mutex::new(Vec::new());
    let last_committed = AtomicU64::new(0);
    let mut restore_from: Option<u64> = None;
    let mut attempt = 0u32;

    loop {
        let failed = Arc::new(AtomicBool::new(false));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let start = restore_from.unwrap_or(0);
            let skip = (start * interval).min(n);
            let mut ops: Vec<Op> = (0..parts).map(&make_op).collect();
            let mut wms = vec![0u64; parts];
            let mut frontiers = vec![0u64; parts];
            if let Some(g) = restore_from {
                let st = lock(&store);
                for (p, op) in ops.iter_mut().enumerate() {
                    if let Some(s) = st.get(&g).and_then(|snaps| snaps[p].as_ref()) {
                        op.restore(s.state.clone());
                        wms[p] = s.watermark;
                        frontiers[p] = s.frontier;
                        metrics.add_stream_checkpoints_restored(1);
                    }
                }
            }
            metrics.add_tasks_launched(parts as u64);
            let mut task_faults: Vec<StreamFault> = (0..parts)
                .map(|p| plan.stream_fault(metrics, stage_op, p, attempt, Arc::clone(&failed)))
                .collect();
            let mut src_fault =
                plan.stream_fault(metrics, stage_src, parts, attempt, Arc::clone(&failed));

            let mut src_frontier = 0u64;
            let mut wm = 0u64;
            let mut pending: BTreeMap<u64, Vec<Vec<Op::Out>>> = BTreeMap::new();
            let mut buf: Vec<Op::Out> = Vec::new();
            let slabbed = cfg.slab_rows > 1;
            let mut slabs: Vec<Vec<super::StreamEvent<Op::In>>> =
                (0..parts).map(|_| Vec::new()).collect();

            // Bootstrap checkpoint (mirrors the continuous bootstrap
            // barrier).
            for (p, op) in ops.iter().enumerate() {
                snapshot_task::<Op>(
                    &store, metrics, seed, parts, start, p, wms[p], frontiers[p],
                    op.state(),
                );
            }
            commit_epoch(start, &mut pending, &committed, &last_committed, metrics);
            scrub_previous::<Op>(&store, plan, metrics, stage_op, seed, attempt, start);

            for (idx, ev) in source.events.iter().enumerate() {
                let idx = idx as u64;
                let emitted = idx + 1;
                if idx < skip {
                    src_frontier = src_frontier.max(ev.time);
                    if emitted % wm_every == 0 && !stalled(scfg, emitted) {
                        wm = src_frontier.saturating_sub(scfg.allowance);
                    }
                    continue;
                }
                check_cancelled(cancel, metrics, stage_src, parts);
                src_fault.on_event();
                src_frontier = src_frontier.max(ev.time);
                metrics.add_records_read(1);
                let epoch = idx / interval + 1;
                let p = (route(&ev.payload) % parts as u64) as usize;
                task_faults[p].on_event();
                if slabbed {
                    slabs[p].push(ev.clone());
                    if slabs[p].len() >= cfg.slab_rows {
                        drain_slab(
                            &mut slabs[p], &mut ops[p], wms[p], &mut frontiers[p], epoch,
                            parts, p, &mut pending, &mut buf, metrics,
                        );
                    }
                } else if ev.time < wms[p] {
                    metrics.add_late_events_dropped(1);
                } else {
                    if ev.time < frontiers[p] {
                        metrics.add_watermark_lag_events(1);
                    }
                    frontiers[p] = frontiers[p].max(ev.time);
                    ops[p].on_event(ev, &mut buf);
                    metrics.add_compute_calls(1);
                    stash(&mut pending, epoch, parts, p, &mut buf);
                }
                if emitted % wm_every == 0 {
                    if !stalled(scfg, emitted) {
                        wm = src_frontier.saturating_sub(scfg.allowance);
                    }
                    if let Some(g) = cfg.lag_gauge.as_ref() {
                        g.store(src_frontier.saturating_sub(wm), Ordering::Release);
                    }
                    for (p, op) in ops.iter_mut().enumerate() {
                        // Slabs flush before the watermark advances, as in
                        // the continuous runtime's control alignment.
                        drain_slab(
                            &mut slabs[p], op, wms[p], &mut frontiers[p], epoch, parts, p,
                            &mut pending, &mut buf, metrics,
                        );
                        fire(op, wm, &mut wms[p], &mut buf, metrics);
                        stash(&mut pending, epoch, parts, p, &mut buf);
                    }
                }
                if emitted % interval == 0 {
                    let k = emitted / interval;
                    for (p, op) in ops.iter_mut().enumerate() {
                        drain_slab(
                            &mut slabs[p], op, wms[p], &mut frontiers[p], epoch, parts, p,
                            &mut pending, &mut buf, metrics,
                        );
                    }
                    for (p, op) in ops.iter().enumerate() {
                        snapshot_task::<Op>(
                            &store, metrics, seed, parts, k, p, wms[p], frontiers[p],
                            op.state(),
                        );
                    }
                    commit_epoch(k, &mut pending, &committed, &last_committed, metrics);
                    scrub_previous::<Op>(&store, plan, metrics, stage_op, seed, attempt, k);
                }
            }
            // Any residual slab belongs to the final flush epoch (the loop
            // drained at every earlier barrier boundary).
            for (p, op) in ops.iter_mut().enumerate() {
                drain_slab(
                    &mut slabs[p], op, wms[p], &mut frontiers[p], final_epoch, parts, p,
                    &mut pending, &mut buf, metrics,
                );
            }
            src_fault.on_finish();
            for f in &mut task_faults {
                f.on_finish();
            }
            // Final flush epoch.
            for (p, op) in ops.iter_mut().enumerate() {
                fire(op, u64::MAX, &mut wms[p], &mut buf, metrics);
                stash(&mut pending, final_epoch, parts, p, &mut buf);
            }
            for (p, op) in ops.iter().enumerate() {
                snapshot_task::<Op>(
                    &store, metrics, seed, parts, final_epoch, p, wms[p], frontiers[p],
                    op.state(),
                );
            }
            commit_epoch(final_epoch, &mut pending, &committed, &last_committed, metrics);
            scrub_previous::<Op>(&store, plan, metrics, stage_op, seed, attempt, final_epoch);
        }));
        match outcome {
            Ok(()) => {
                return StreamRunResult {
                    committed: std::mem::take(&mut *lock(&committed)),
                    epochs_committed: last_committed.load(Ordering::Acquire),
                };
            }
            Err(payload) => {
                restore_from = recover_or_rethrow::<Op>(
                    payload,
                    &mut attempt,
                    max_attempts,
                    &store,
                    plan,
                    metrics,
                    stage_op,
                    seed,
                    cancel,
                    last_committed.load(Ordering::Acquire),
                );
            }
        }
    }
}

/// Drains one partition's micro-batch slab: late-filters against the
/// partition watermark, folds the survivors through
/// [`StreamOperator::on_batch`] in one call, and stashes the outputs at
/// `epoch`. The slab is always flushed before the driver processes a
/// watermark or takes a barrier, so the filter sees exactly the watermark
/// the record path would have seen per event.
#[allow(clippy::too_many_arguments)]
fn drain_slab<Op: StreamOperator>(
    slab: &mut Vec<super::StreamEvent<Op::In>>,
    op: &mut Op,
    wm_p: u64,
    frontier_p: &mut u64,
    epoch: u64,
    parts: usize,
    part: usize,
    pending: &mut BTreeMap<u64, Vec<Vec<Op::Out>>>,
    buf: &mut Vec<Op::Out>,
    metrics: &EngineMetrics,
) {
    if slab.is_empty() {
        return;
    }
    metrics.add_stream_batches(1);
    let (mut late, mut lagged) = (0u64, 0u64);
    slab.retain(|ev| {
        if ev.time < wm_p {
            late += 1;
            return false;
        }
        if ev.time < *frontier_p {
            lagged += 1;
        }
        *frontier_p = (*frontier_p).max(ev.time);
        true
    });
    if late > 0 {
        metrics.add_late_events_dropped(late);
    }
    if lagged > 0 {
        metrics.add_watermark_lag_events(lagged);
    }
    if !slab.is_empty() {
        op.on_batch(slab, buf);
        metrics.add_compute_calls(slab.len() as u64);
        stash(pending, epoch, parts, part, buf);
    }
    slab.clear();
}

/// Moves buffered outputs into the given epoch's per-partition slot.
fn stash<Out>(
    pending: &mut BTreeMap<u64, Vec<Vec<Out>>>,
    epoch: u64,
    parts: usize,
    part: usize,
    buf: &mut Vec<Out>,
) {
    if buf.is_empty() {
        return;
    }
    pending
        .entry(epoch)
        .or_insert_with(|| (0..parts).map(|_| Vec::new()).collect())[part]
        .append(buf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{install_quiet_hook, FaultConfig};
    use crate::streaming::source::shuffle_bounded;
    use crate::streaming::window::{WindowAssigner, WindowResult, WindowedAggregate};
    use crate::streaming::StreamEvent;

    fn kv(v: &u64) -> Option<(u64, u64)> {
        Some((*v % 4, *v))
    }

    fn route(v: &u64) -> u64 {
        *v % 4
    }

    fn events(n: u64) -> Vec<StreamEvent<u64>> {
        (0..n).map(|i| StreamEvent::new(i * 3, i)).collect()
    }

    fn make_op(_p: usize) -> WindowedAggregate<u64> {
        WindowedAggregate::new(WindowAssigner::Tumbling { size: 30 }, kv)
    }

    fn run(
        continuous: bool,
        events: Vec<StreamEvent<u64>>,
        plan: &FaultPlan,
    ) -> StreamRunResult<WindowResult> {
        let source = StreamSource::with_config(
            events,
            SourceConfig {
                allowance: 40,
                watermark_every: 8,
                stall_watermark_after: None,
                hold_at_end: false,
            },
        );
        let cfg = StreamJobConfig {
            parallelism: 3,
            ..StreamJobConfig::default()
        };
        let metrics = EngineMetrics::new();
        let cancel = CancelToken::new();
        if continuous {
            run_continuous_checkpointed(&source, make_op, route, &cfg, plan, &metrics, &cancel)
        } else {
            run_micro_batch_checkpointed(&source, make_op, route, &cfg, plan, &metrics, &cancel)
        }
    }

    #[test]
    fn runtimes_commit_identical_outputs_clean() {
        let plan = FaultPlan::disabled();
        let ct = run(true, events(200), &plan);
        let mb = run(false, events(200), &plan);
        assert!(!ct.committed.is_empty());
        assert_eq!(ct.committed, mb.committed, "runtimes must be byte-equal");
        assert_eq!(ct.epochs_committed, mb.epochs_committed);
    }

    #[test]
    fn chaos_run_is_exactly_once_on_both_runtimes() {
        install_quiet_hook();
        let plan = FaultPlan::new(FaultConfig::corruption(41));
        let ct = run(true, events(200), &plan);
        let mb = run(false, events(200), &plan);
        // Exactly-once: the committed payload sequence survives kills,
        // stragglers and rotten checkpoints byte-for-byte.
        assert_eq!(ct.committed, mb.committed);
        // And it matches the clean run's payloads as a sorted multiset
        // (epoch tags differ because the corruption preset shortens the
        // checkpoint interval).
        let clean = run(true, events(200), &FaultPlan::disabled());
        let mut a: Vec<WindowResult> = clean.committed.into_iter().map(|(_, w)| w).collect();
        let mut b: Vec<WindowResult> = ct.committed.into_iter().map(|(_, w)| w).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "chaos changed the committed window results");
    }

    #[test]
    fn bounded_disorder_within_allowance_changes_nothing() {
        let plan = FaultPlan::disabled();
        let base = run(true, events(200), &plan);
        let shuffled = run(true, shuffle_bounded(events(200), 7, 5), &plan);
        let mut a: Vec<WindowResult> = base.committed.into_iter().map(|(_, w)| w).collect();
        let mut b: Vec<WindowResult> = shuffled.committed.into_iter().map(|(_, w)| w).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "bounded disorder within the allowance must be invisible");
    }

    /// Runs one job with an explicit `slab_rows`, returning the result and
    /// the metrics handle so tests can inspect the transport counters.
    fn run_slab(
        continuous: bool,
        slab_rows: usize,
        plan: &FaultPlan,
    ) -> (StreamRunResult<WindowResult>, EngineMetrics) {
        let source = StreamSource::with_config(
            events(200),
            SourceConfig {
                allowance: 40,
                watermark_every: 8,
                stall_watermark_after: None,
                hold_at_end: false,
            },
        );
        let cfg = StreamJobConfig {
            parallelism: 3,
            slab_rows,
            ..StreamJobConfig::default()
        };
        let metrics = EngineMetrics::new();
        let cancel = CancelToken::new();
        let out = if continuous {
            run_continuous_checkpointed(&source, make_op, route, &cfg, plan, &metrics, &cancel)
        } else {
            run_micro_batch_checkpointed(&source, make_op, route, &cfg, plan, &metrics, &cancel)
        };
        (out, metrics)
    }

    #[test]
    fn slab_transport_commits_byte_equal_to_per_event() {
        install_quiet_hook();
        let mut emitted = Vec::new();
        for continuous in [true, false] {
            // Clean run: slabbed and per-event transports must be
            // indistinguishable in the committed (epoch, result) sequence.
            let (slab, m_slab) = run_slab(continuous, 64, &FaultPlan::disabled());
            let (event, m_event) = run_slab(continuous, 1, &FaultPlan::disabled());
            assert!(!slab.committed.is_empty());
            assert_eq!(slab.committed, event.committed, "clean runs diverged");
            assert!(m_slab.stream_batches() > 0, "slab path not taken");
            assert_eq!(m_event.stream_batches(), 0, "per-event path took slabs");
            // A slab spans several watermarks, so its output buffer holds
            // earlier firings when a later one runs: only what each firing
            // appended may count.
            emitted.extend([m_slab.windows_emitted(), m_event.windows_emitted()]);
            assert_eq!(m_slab.windows_emitted(), slab.committed.len() as u64);
            // Chaos run: same kill schedule, same committed bytes.
            let (slab, _) = run_slab(continuous, 64, &FaultPlan::new(FaultConfig::chaos(9)));
            let (event, _) = run_slab(continuous, 1, &FaultPlan::new(FaultConfig::chaos(9)));
            assert_eq!(slab.committed, event.committed, "chaos runs diverged");
        }
        assert!(
            emitted.iter().all(|&n| n == emitted[0]),
            "windows_emitted differs across slab sizes or runtimes: {emitted:?}"
        );
    }

    #[test]
    fn deterministic_across_reruns() {
        install_quiet_hook();
        let plan = FaultPlan::new(FaultConfig::chaos(9));
        let a = run(false, events(160), &plan);
        let plan = FaultPlan::new(FaultConfig::chaos(9));
        let b = run(false, events(160), &plan);
        assert_eq!(a.committed, b.committed);
    }
}
