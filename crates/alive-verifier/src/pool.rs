//! The supervised parallel corpus driver: worker pool and watchdog.
//!
//! [`run_supervised`] runs a corpus across `--jobs N` worker threads
//! pulling task indices from a shared queue. Each task is verified by
//! [`verify_one`](crate::driver) under its own [`CancelToken`] and budget,
//! so one misbehaving query can be cut down without touching its siblings.
//! Two supervision mechanisms sit around the workers:
//!
//! * **The watchdog thread** polls every active worker slot. It fires a
//!   task's cancel token when the task's deadline passes (a backstop for
//!   queries that stop polling their budget) and propagates global
//!   cancellation (Ctrl-C) to every in-flight task. If a worker ignores
//!   cancellation for longer than [`PoolConfig::grace`], the watchdog
//!   **detaches** it: the thread is leaked, the task is recorded as
//!   [`OutcomeKind::Hung`] with its partial stats, and — if work remains —
//!   a replacement worker is spawned so the pool never shrinks.
//! * **Input-order assembly**: outcomes arrive in completion order but the
//!   [`RunReport`] lists them in corpus order, so parallel and sequential
//!   runs of one corpus produce identical reports apart from timings and
//!   worker ids.
//!
//! Durability is the caller's: the observer of [`run_supervised`] sees
//! each outcome before it is counted, which is where the CLI inserts it
//! into the verdict store ([`crate::store`], `--journal`/`--resume`).
//!
//! Fail-fast (`keep_going == false`) in a parallel run stops *dispatch* at
//! the first `Invalid`/`Error`: queued work is skipped, but tasks already
//! in flight run to completion and appear in the report (under `--jobs 1`
//! this degenerates to the sequential fail-fast behavior).

use crate::driver::{verify_one, Attempt, DriverConfig, OutcomeKind, RunReport, TransformOutcome};
use alive_ir::Transform;
use alive_smt::CancelToken;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pool-level settings for [`run_supervised`].
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Number of worker threads (clamped to at least 1).
    pub jobs: usize,
    /// How long a cancelled worker may keep running before the watchdog
    /// detaches it and records the task as hung.
    pub grace: Duration,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            jobs: 1,
            grace: Duration::from_secs(2),
        }
    }
}

/// One unit of work for the pool: which corpus index to verify, and at
/// what budget escalation.
#[derive(Clone, Debug)]
pub struct TaskSpec {
    /// Index into the corpus slice.
    pub index: usize,
    /// Budget multiplier: 1 for fresh work, larger for requeued entries.
    pub scale: u32,
}

impl TaskSpec {
    /// A fresh, unescalated task.
    pub fn fresh(index: usize) -> TaskSpec {
        TaskSpec { index, scale: 1 }
    }
}

/// Why a slot's cancel token was raised (drives the honest reason string).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CancelCause {
    /// Global cancellation (Ctrl-C) propagated to the task.
    Global,
    /// The watchdog fired the token because the task's deadline passed.
    Deadline,
}

/// Shared state of one worker slot, inspected by the watchdog.
#[derive(Debug)]
struct SlotState {
    /// Worker id (stable across the worker's tasks; replacements get new
    /// ids).
    worker: u32,
    /// Is a task currently running in this slot?
    busy: bool,
    /// Did the watchdog give up on this worker? A detached slot's thread
    /// is leaked and its eventual result discarded.
    detached: bool,
    /// Corpus index of the running task.
    task: usize,
    /// When the running task started.
    started: Instant,
    /// Deadline of the task's current attempt (re-armed per attempt).
    deadline: Option<Instant>,
    /// When the task's token was cancelled, and why.
    cancelled_at: Option<(Instant, CancelCause)>,
    /// The running task's cancel token.
    token: CancelToken,
}

/// One pool worker: its supervision state and its join handle. The handle
/// is `None` while being initialized and after being taken for join.
#[derive(Debug)]
struct WorkerEntry {
    slot: SlotState,
    handle: Option<JoinHandle<()>>,
}

/// Everything the workers, watchdog, and supervisor share.
struct Shared {
    transforms: Vec<(String, Transform)>,
    config: DriverConfig,
    grace: Duration,
    /// Pending tasks with their enqueue instant, so the tracer can report
    /// how long each task sat waiting for a worker.
    queue: Mutex<VecDeque<(TaskSpec, Instant)>>,
    workers: Mutex<Vec<WorkerEntry>>,
    results: mpsc::Sender<(usize, TransformOutcome)>,
    shutdown: AtomicBool,
    /// Raised by the worker that hits an Invalid/Error outcome without
    /// `keep_going`, *before* it publishes the result: workers stop
    /// pulling new tasks immediately instead of racing the supervisor's
    /// queue drain (a jobs=1 run skips exactly like the sequential
    /// driver).
    fail_fast: AtomicBool,
    next_worker_id: AtomicU32,
}

/// Spawns one worker thread with a fresh slot; returns nothing — the
/// worker registers itself in `shared.workers`.
fn spawn_worker(shared: &Arc<Shared>) {
    let worker_id = shared.next_worker_id.fetch_add(1, Ordering::SeqCst);
    let mut workers = shared.workers.lock().unwrap_or_else(|e| e.into_inner());
    let slot_idx = workers.len();
    workers.push(WorkerEntry {
        slot: SlotState {
            worker: worker_id,
            busy: false,
            detached: false,
            task: 0,
            started: Instant::now(),
            deadline: None,
            cancelled_at: None,
            token: CancelToken::new(),
        },
        handle: None,
    });
    let shared2 = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("alive-worker-{worker_id}"))
        .spawn(move || worker_loop(&shared2, slot_idx, worker_id))
        .expect("spawn worker thread");
    workers[slot_idx].handle = Some(handle);
}

/// The worker main loop: pull a task, verify it under a per-task token,
/// publish the outcome — unless the watchdog detached us meanwhile.
fn worker_loop(shared: &Arc<Shared>, slot_idx: usize, worker_id: u32) {
    // Spans the worker's whole lifetime; its self-time (everything outside
    // the nested pool.task spans) is the dispatch overhead — queue locking,
    // slot bookkeeping, result publication. A detached worker never closes
    // it, same as its task span. It opens only once the supervisor lets go
    // of the queue, after `pool.spawn` closed, so with one worker the
    // root spans never overlap.
    drop(shared.queue.lock().unwrap_or_else(|e| e.into_inner()));
    let _worker_span = shared
        .config
        .verify
        .ef
        .tracer
        .span_with("pool.worker", || worker_id.to_string());
    loop {
        if shared.config.cancel.is_cancelled()
            || shared.shutdown.load(Ordering::SeqCst)
            || shared.fail_fast.load(Ordering::SeqCst)
        {
            return;
        }
        let (task, waited, depth_left) = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            match queue.pop_front() {
                Some((t, enqueued)) => (t, enqueued.elapsed(), queue.len() as u64),
                None => return,
            }
        };
        let tracer = shared.config.verify.ef.tracer.clone();
        tracer.sample("pool.queue_wait_us", waited.as_micros() as u64);
        tracer.gauge("pool.queue_depth", depth_left);
        let token = CancelToken::new();
        {
            let mut workers = shared.workers.lock().unwrap_or_else(|e| e.into_inner());
            let slot = &mut workers[slot_idx].slot;
            slot.busy = true;
            slot.task = task.index;
            slot.started = Instant::now();
            slot.deadline = None;
            slot.cancelled_at = None;
            slot.token = token.clone();
        }
        let (name, transform) = &shared.transforms[task.index];
        // The task span stays open for as long as the verification runs; a
        // worker that the watchdog detaches never closes it, which is
        // exactly what the trace should show (readers treat still-open
        // spans at end-of-trace as detached work).
        let task_span = tracer.span_with("pool.task", || name.clone());
        let mut outcome = verify_one(
            name,
            transform,
            &shared.config,
            &token,
            task.scale,
            worker_id,
            |deadline| {
                let mut workers = shared.workers.lock().unwrap_or_else(|e| e.into_inner());
                workers[slot_idx].slot.deadline = deadline;
            },
        );
        drop(task_span);
        // The task token is private, so "cancelled" can mean two things:
        // global cancellation, or the watchdog's deadline backstop. Keep
        // the reason honest.
        if outcome.kind == OutcomeKind::Unknown
            && outcome.detail.contains("cancelled")
            && !shared.config.cancel.is_cancelled()
        {
            let cause = {
                let workers = shared.workers.lock().unwrap_or_else(|e| e.into_inner());
                workers[slot_idx].slot.cancelled_at.map(|(_, c)| c)
            };
            if cause == Some(CancelCause::Deadline) {
                outcome.detail = "wall-clock deadline exceeded (watchdog)".to_string();
                if let Some(last) = outcome.attempts.last_mut() {
                    last.outcome = format!("unknown: {}", outcome.detail);
                }
            }
        }
        if !shared.config.keep_going
            && matches!(outcome.kind, OutcomeKind::Invalid | OutcomeKind::Error)
        {
            shared.fail_fast.store(true, Ordering::SeqCst);
        }
        {
            let mut workers = shared.workers.lock().unwrap_or_else(|e| e.into_inner());
            let slot = &mut workers[slot_idx].slot;
            if slot.detached {
                // The watchdog already recorded this task as hung and
                // (possibly) spawned our replacement; our late result must
                // not be double-counted.
                return;
            }
            slot.busy = false;
        }
        if shared.results.send((task.index, outcome)).is_err() {
            return;
        }
    }
}

/// The watchdog main loop: fire deadlines, propagate global cancellation,
/// detach unresponsive workers, keep the pool at strength.
fn watchdog_loop(shared: &Arc<Shared>) {
    let poll = (shared.grace / 4).clamp(Duration::from_millis(1), Duration::from_millis(5));
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(poll);
        let now = Instant::now();
        let global = shared.config.cancel.is_cancelled();
        let mut hung: Vec<(usize, TransformOutcome)> = Vec::new();
        let mut replacements = 0usize;
        {
            let mut workers = shared.workers.lock().unwrap_or_else(|e| e.into_inner());
            for entry in workers.iter_mut() {
                let slot = &mut entry.slot;
                if !slot.busy || slot.detached {
                    continue;
                }
                match slot.cancelled_at {
                    None => {
                        let overdue = slot.deadline.is_some_and(|d| now >= d);
                        if global || overdue {
                            slot.token.cancel();
                            let cause = if global {
                                CancelCause::Global
                            } else {
                                CancelCause::Deadline
                            };
                            slot.cancelled_at = Some((now, cause));
                        }
                    }
                    Some((when, cause)) => {
                        if now.duration_since(when) >= shared.grace {
                            slot.detached = true;
                            slot.busy = false;
                            let (name, _) = &shared.transforms[slot.task];
                            let elapsed = now.duration_since(slot.started);
                            let worker_id = slot.worker;
                            shared.config.verify.ef.tracer.mark(
                                "pool.detach",
                                || format!("worker-{worker_id} {name}"),
                                elapsed.as_micros() as u64,
                            );
                            let mut outcome = TransformOutcome::synthetic(
                                name,
                                OutcomeKind::Hung,
                                format!(
                                    "worker {} ignored {} for {:?} past the grace \
                                     period; thread detached",
                                    slot.worker,
                                    match cause {
                                        CancelCause::Global => "cancellation",
                                        CancelCause::Deadline => "its deadline",
                                    },
                                    shared.grace,
                                ),
                            );
                            outcome.wall = now.duration_since(slot.started);
                            outcome.worker = slot.worker;
                            outcome.attempts.push(Attempt {
                                wall: now.duration_since(slot.started),
                                conflicts: 0,
                                outcome: "hung".to_string(),
                            });
                            hung.push((slot.task, outcome));
                            replacements += 1;
                        }
                    }
                }
            }
        }
        for (task, outcome) in hung {
            let _ = shared.results.send((task, outcome));
        }
        // Keep the pool at strength — but only if there is still work to
        // pull and the run is not shutting down.
        if replacements > 0 && !global && !shared.shutdown.load(Ordering::SeqCst) {
            let pending = {
                let queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                queue.len()
            };
            for _ in 0..replacements.min(pending) {
                spawn_worker(shared);
            }
        }
    }
}

/// Runs `tasks` over the corpus under a supervised worker pool, merging in
/// `preset` outcomes (verdicts reused by `--resume`).
///
/// `observer` fires for preset outcomes first (in corpus order), then for
/// live outcomes in completion order, each time on this thread and before
/// the outcome enters the report; the returned report is always in corpus
/// order.
pub fn run_supervised(
    transforms: &[(String, Transform)],
    tasks: Vec<TaskSpec>,
    preset: Vec<(usize, TransformOutcome)>,
    config: &DriverConfig,
    pool: &PoolConfig,
    mut observer: impl FnMut(usize, &TransformOutcome),
) -> RunReport {
    let total = transforms.len();
    let mut slots: Vec<Option<TransformOutcome>> = vec![None; total];
    let mut report = RunReport::default();

    let mut preset = preset;
    preset.sort_by_key(|(i, _)| *i);
    for (i, outcome) in preset {
        observer(i, &outcome);
        slots[i] = Some(outcome);
    }

    let mut remaining = tasks.len();
    let jobs = pool.jobs.max(1).min(tasks.len().max(1));
    let spawn_span = config.verify.ef.tracer.span("pool.spawn");
    let (tx, rx) = mpsc::channel();
    let shared = Arc::new(Shared {
        transforms: transforms.to_vec(),
        config: config.clone(),
        grace: pool.grace,
        queue: Mutex::new(tasks.into_iter().map(|t| (t, Instant::now())).collect()),
        workers: Mutex::new(Vec::new()),
        results: tx,
        shutdown: AtomicBool::new(false),
        fail_fast: AtomicBool::new(false),
        next_worker_id: AtomicU32::new(0),
    });

    // Held until `pool.spawn` closes: workers wait on it (see worker_loop).
    let queue_gate = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    let watchdog = if remaining > 0 {
        for _ in 0..jobs {
            spawn_worker(&shared);
        }
        let shared2 = Arc::clone(&shared);
        Some(
            std::thread::Builder::new()
                .name("alive-watchdog".to_string())
                .spawn(move || watchdog_loop(&shared2))
                .expect("spawn watchdog thread"),
        )
    } else {
        None
    };
    drop(spawn_span);
    drop(queue_gate);

    let mut stopped_dispatch = false;
    while remaining > 0 {
        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok((index, outcome)) => {
                if slots[index].is_some() {
                    continue; // late duplicate after a detach race
                }
                let kind = outcome.kind;
                observer(index, &outcome);
                slots[index] = Some(outcome);
                remaining -= 1;
                if !config.keep_going
                    && matches!(kind, OutcomeKind::Invalid | OutcomeKind::Error)
                    && !stopped_dispatch
                {
                    stopped_dispatch = true;
                    let drained = {
                        let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                        let n = queue.len();
                        queue.clear();
                        n
                    };
                    report.skipped += drained;
                    remaining -= drained;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if config.cancel.is_cancelled() {
                    // Workers stop pulling on cancellation; whatever is
                    // still queued will never run.
                    let drained = {
                        let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                        let n = queue.len();
                        queue.clear();
                        n
                    };
                    report.skipped += drained;
                    remaining -= drained;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }

    shared.shutdown.store(true, Ordering::SeqCst);
    if let Some(w) = watchdog {
        let _ = w.join();
    }
    {
        let mut workers = shared.workers.lock().unwrap_or_else(|e| e.into_inner());
        for entry in workers.iter_mut() {
            if entry.slot.detached {
                // Leak the thread: it is stuck in a query that ignores
                // cancellation, and joining it would hang the supervisor
                // the same way. Process exit reclaims it.
                drop(entry.handle.take());
            } else if let Some(h) = entry.handle.take() {
                let _ = h.join();
            }
        }
    }

    report.cancelled = config.cancel.is_cancelled();
    report.outcomes = slots.into_iter().flatten().collect();
    report
}

/// Convenience wrapper: the whole corpus, fresh.
pub fn run_transforms_parallel(
    transforms: &[(String, Transform)],
    config: &DriverConfig,
    pool: &PoolConfig,
) -> RunReport {
    let tasks = (0..transforms.len()).map(TaskSpec::fresh).collect();
    run_supervised(transforms, tasks, Vec::new(), config, pool, |_, _| {})
}
