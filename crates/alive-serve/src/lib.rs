//! `alive serve` — verification as a long-running service.
//!
//! The paper's workflow is batch: hand Alive a file, wait ~1.5 s per
//! query, read the verdicts. A CI fleet auditing InstCombine patches
//! mostly re-submits transforms it has already seen. This crate turns the
//! verifier into a daemon that never proves the same optimization twice:
//!
//! * every request is **canonicalized** ([`alive_ir::canon`]) so naming,
//!   commutative operand order, and precondition shuffling all collapse
//!   to one identity;
//! * a persistent **content-addressed verdict store**
//!   ([`alive_verifier::store`]) answers repeats in microseconds;
//! * concurrent requests for the same uncached transform **coalesce** —
//!   one verification runs, every waiter gets its verdict;
//! * misses fall through to the real resilient driver
//!   ([`alive_verifier::verify_single`]) under the caller's budgets.
//!
//! Transports: a unix socket ([`serve_unix`]) for daemon use and
//! stdin/stdout ([`serve_stdio`]) for tests, CI, and pipelines. The wire
//! protocol is line-delimited JSON ([`proto`]); [`client`] is the
//! retrying client half.
//!
//! The daemon is **crash-only and overload-safe** ([`ServeLimits`]):
//! past `max_connections` or `queue_depth` it answers a structured
//! `busy` refusal instead of queueing unbounded work, silent connections
//! are closed after an idle timeout, every miss runs under a per-request
//! deadline, and shutdown drains in-flight requests before force-closing.
//! The store beneath it takes a single-writer lock and refuses corrupt
//! state rather than guessing (see `alive_verifier::store`).
//!
//! # Example
//!
//! ```
//! use alive_serve::{Server, ServeConfig};
//! use alive_verifier::{DriverConfig, VerifyConfig};
//!
//! let dir = std::env::temp_dir().join("alive-serve-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! std::fs::remove_file(dir.join("store.jsonl")).ok(); // fresh cache for the demo
//! let config = ServeConfig {
//!     driver: DriverConfig { verify: VerifyConfig::fast(), ..Default::default() },
//!     store_path: dir.join("store.jsonl"),
//!     ..Default::default()
//! };
//! let (server, _how) = Server::open(config).unwrap();
//!
//! let t = alive_ir::parse_transform("%r = add %x, 0\n=>\n%r = %x").unwrap();
//! let first = server.check("opt0", &t);
//! assert!(!first.cached);
//! // The alpha-renamed, operand-commuted variant is the same optimization.
//! let v = alive_ir::parse_transform("%q = add 0, %z\n=>\n%q = %z").unwrap();
//! let second = server.check("opt0-variant", &v);
//! assert!(second.cached);
//! assert_eq!(first.verdict, second.verdict);
//! # std::fs::remove_file(dir.join("store.jsonl")).ok();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(unix)]
pub mod client;
pub mod proto;
pub mod slowlog;

/// The shared durable-I/O seam (re-exported from `alive-verifier`): every
/// artifact the daemon persists — store, slowlog — writes through
/// it, and the crash-point torture harness counts its operations.
pub use alive_verifier::durable;

use alive_ir::canon::{canonical_text, fnv1a64};
use alive_ir::{parse_transforms, validate, Transform};
use alive_trace::{serve as metric, Telemetry, Tracer};
use alive_verifier::store::{needs_compaction, CompactReport, StoreOpen, VerdictStore};
use alive_verifier::{verify_single, DriverConfig, OutcomeKind, TransformOutcome};
use proto::{
    render_busy, render_done, render_error, render_shutdown, Request, StatsLine, VerdictLine,
    PROTO_VERSION,
};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Overload and lifecycle limits for the daemon. Zero disables a cap;
/// the defaults are deliberately finite — a daemon that accepts
/// unbounded work does not degrade, it falls over.
#[derive(Clone, Debug)]
pub struct ServeLimits {
    /// Concurrent socket connections; one past the cap is answered with
    /// a `busy` line and closed (`serve.shed`). 0 = unlimited.
    pub max_connections: usize,
    /// In-flight verifications; a request that would *start* one past
    /// the cap is refused `busy` (`serve.busy`). Store hits and joins to
    /// an existing in-flight run cost no worker and are always admitted.
    /// 0 = unlimited.
    pub queue_depth: usize,
    /// Deadline for each miss verification, applied when the driver has
    /// no timeout of its own, so one pathological transform cannot
    /// monopolize a worker forever.
    pub request_timeout: Option<Duration>,
    /// How long a graceful shutdown waits for in-flight connections
    /// before cancelling their verifications and force-closing.
    pub drain_timeout: Duration,
    /// Close a socket connection that sends nothing for this long
    /// (`serve.idle_close` — the slow-loris defense). Zero disables.
    pub idle_timeout: Duration,
}

impl Default for ServeLimits {
    fn default() -> ServeLimits {
        ServeLimits {
            max_connections: 256,
            queue_depth: 64,
            request_timeout: Some(Duration::from_secs(60)),
            drain_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(300),
        }
    }
}

/// Settings for [`Server::open`].
#[derive(Debug)]
pub struct ServeConfig {
    /// Verifier settings for cache misses (budgets, retries, certificates).
    pub driver: DriverConfig,
    /// Path of the persistent verdict store.
    pub store_path: PathBuf,
    /// Eviction epoch: bump to distrust every cached verdict (toolchain
    /// change, config change you want re-proven, ...).
    pub epoch: u64,
    /// Worker threads for `batch` requests (0 = available parallelism).
    pub workers: usize,
    /// When set, certificates produced on a miss are written here as
    /// `<hash>.<k>.cert` and the verdict carries the reference.
    pub cert_dir: Option<PathBuf>,
    /// Metrics/trace destination (disabled by default).
    pub tracer: Tracer,
    /// Overload and lifecycle limits.
    pub limits: ServeLimits,
    /// Slow-query log threshold: a miss whose verification takes at
    /// least this many milliseconds appends a sealed record to
    /// `<store_path>.slowlog` (0 logs every miss). `None` disables the
    /// log entirely.
    pub slow_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            driver: DriverConfig::default(),
            store_path: PathBuf::from("alive-store.jsonl"),
            epoch: 0,
            workers: 0,
            cert_dir: None,
            tracer: Tracer::disabled(),
            limits: ServeLimits::default(),
            slow_ms: None,
        }
    }
}

/// Admission refusal from [`Server::try_check`]: the verification queue
/// is at [`ServeLimits::queue_depth`], and taking more work would only
/// grow latency for everyone already in line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Busy {
    /// Hint: wait at least this long (plus jitter) before retrying.
    pub retry_after_ms: u64,
}

/// Server-side phase timings for one request, echoed on proto-2
/// verdict lines so a client can see where its latency went without a
/// trace file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestTiming {
    /// Canonicalization + hashing, microseconds.
    pub canon_us: u64,
    /// Verdict-store lookups (all attempts), microseconds.
    pub lookup_us: u64,
    /// Wait before verification started (leader) or the joined verdict
    /// arrived (follower), microseconds.
    pub queue_us: u64,
    /// Verification paid by this request (0 on hits and joins),
    /// microseconds.
    pub verify_us: u64,
}

/// A cached-or-fresh verdict for one request.
#[derive(Clone, Debug)]
pub struct Answer {
    /// Canonical content hash, 16 lower-case hex digits.
    pub hash: String,
    /// Final classification.
    pub verdict: OutcomeKind,
    /// Verdict detail.
    pub reason: String,
    /// Wall milliseconds of the *original* verification (not this lookup).
    pub wall_ms: u64,
    /// Certificate reference, empty when none.
    pub cert: String,
    /// True when answered from the store.
    pub cached: bool,
    /// True when this request joined another's in-flight verification.
    pub coalesced: bool,
    /// Where this request's latency went.
    pub timing: RequestTiming,
}

impl Answer {
    /// The wire verdict line for this answer; `start` is when the
    /// request began, for its end-to-end `wall_us`.
    fn into_line(
        self,
        id: String,
        index: usize,
        name: String,
        rid: String,
        start: Instant,
    ) -> VerdictLine {
        VerdictLine {
            id,
            index,
            name,
            hash: self.hash,
            verdict: self.verdict.as_str().to_string(),
            cached: self.cached,
            coalesced: self.coalesced,
            reason: self.reason,
            wall_us: start.elapsed().as_micros() as u64,
            cert: self.cert,
            rid,
            canon_us: self.timing.canon_us,
            lookup_us: self.timing.lookup_us,
            queue_us: self.timing.queue_us,
            verify_us: self.timing.verify_us,
        }
    }
}

/// Counter snapshot ([`Server::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered from the store.
    pub hits: u64,
    /// Requests that ran a verification.
    pub misses: u64,
    /// Requests that joined an in-flight verification.
    pub joins: u64,
    /// Requests rejected before verification.
    pub errors: u64,
    /// Requests refused `busy` at the verification queue.
    pub busy: u64,
    /// Connections shed at the connection cap.
    pub shed: u64,
    /// Connections closed by the idle timeout.
    pub idle_closed: u64,
    /// Verifications in flight right now.
    pub inflight: usize,
    /// Clients currently parked on an in-flight verification.
    pub waiters: usize,
    /// Distinct verdicts in the store.
    pub stored: usize,
    /// Socket connections open right now.
    pub connections: usize,
    /// Milliseconds since the server opened.
    pub uptime_ms: u64,
}

/// The result slot a coalesced waiter blocks on.
#[derive(Default)]
struct Inflight {
    slot: Mutex<Option<Answer>>,
    ready: Condvar,
    /// Clients parked on `ready` (observable progress for tests and the
    /// `stats` op — a condvar itself cannot be asked who is waiting).
    waiters: std::sync::atomic::AtomicUsize,
}

struct ServerInner {
    driver: DriverConfig,
    tracer: Tracer,
    /// Windowed latency registry: always on (recording is a few relaxed
    /// atomic adds), feeds the proto-2 `telemetry` stats block.
    telemetry: Telemetry,
    store: Mutex<VerdictStore>,
    inflight: Mutex<HashMap<String, Arc<Inflight>>>,
    cert_dir: Option<PathBuf>,
    workers: usize,
    limits: ServeLimits,
    started: Instant,
    /// Mints `rq-<n>` request ids for clients that send an empty `id`.
    next_rid: AtomicU64,
    /// The slow-query log and its threshold, when `slow_ms` was set.
    slowlog: Option<(Mutex<slowlog::SlowLog>, u64)>,
    /// What the automatic open-time compaction did, if it ran (for the
    /// startup banner; `None` when the store was below threshold).
    compaction: Option<CompactReport>,
    errors: AtomicU64,
    busy: AtomicU64,
    shed: AtomicU64,
    idle_closed: AtomicU64,
    /// Socket connections currently open (owned by `serve_unix`).
    connections: AtomicUsize,
    stopping: AtomicBool,
    /// Test/embedding seam: the function that actually verifies a miss.
    /// Behind `RwLock<Arc<..>>` so it can be swapped on a shared server
    /// and called without holding any lock (the read guard only lives
    /// long enough to clone the `Arc`).
    verifier: std::sync::RwLock<Arc<VerifyFn>>,
}

type VerifyFn = dyn Fn(&str, &Transform, &DriverConfig) -> TransformOutcome + Send + Sync;

impl std::fmt::Debug for ServerInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerInner")
            .field("driver", &self.driver)
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

/// The verification service: shared verdict store, in-flight coalescing,
/// and the request handlers behind both transports. Cheap to clone
/// ([`Server`] is an `Arc` handle) — every connection thread holds one.
#[derive(Clone, Debug)]
pub struct Server {
    inner: Arc<ServerInner>,
}

impl Server {
    /// Opens the verdict store and builds the service. The store is bound
    /// to the driver's config fingerprint and `config.epoch`; a mismatch
    /// evicts stale verdicts (the returned [`StoreOpen`] says what
    /// happened, for logging).
    pub fn open(config: ServeConfig) -> std::io::Result<(Server, StoreOpen)> {
        let fingerprint = alive_verifier::config_fingerprint(&config.driver.verify);
        let description = alive_verifier::config_description(&config.driver.verify);
        let (mut store, how) = VerdictStore::open(
            &config.store_path,
            fingerprint,
            config.epoch,
            Some(&description),
        )?;
        // A store that is mostly dead records (superseded re-verifications)
        // pays replay cost forever; compact it now, while no request is in
        // flight. Failure is tolerated — the uncompacted store is still
        // correct — but a failure that poisoned the write handle will
        // surface on the first insert, which is the honest place for it.
        let compaction = if needs_compaction(store.replayed(), store.len()) {
            store.compact().ok()
        } else {
            None
        };
        if let Some(dir) = &config.cert_dir {
            std::fs::create_dir_all(dir)?;
        }
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            config.workers
        };
        if let StoreOpen::Loaded { discarded, .. } = &how {
            if *discarded > 0 {
                config
                    .tracer
                    .counter(metric::QUARANTINED, *discarded as u64);
            }
        }
        let slowlog = match config.slow_ms {
            Some(threshold) => {
                let mut path = config.store_path.as_os_str().to_owned();
                path.push(".slowlog");
                let log = slowlog::SlowLog::open(&PathBuf::from(path), 0)?;
                Some((Mutex::new(log), threshold))
            }
            None => None,
        };
        Ok((
            Server {
                inner: Arc::new(ServerInner {
                    driver: config.driver,
                    tracer: config.tracer,
                    telemetry: Telemetry::default(),
                    store: Mutex::new(store),
                    inflight: Mutex::new(HashMap::new()),
                    cert_dir: config.cert_dir,
                    workers,
                    limits: config.limits,
                    started: Instant::now(),
                    next_rid: AtomicU64::new(0),
                    slowlog,
                    compaction,
                    errors: AtomicU64::new(0),
                    busy: AtomicU64::new(0),
                    shed: AtomicU64::new(0),
                    idle_closed: AtomicU64::new(0),
                    connections: AtomicUsize::new(0),
                    stopping: AtomicBool::new(false),
                    verifier: std::sync::RwLock::new(Arc::new(
                        |name: &str, t: &Transform, driver: &DriverConfig| {
                            verify_single(name, t, driver)
                        },
                    )),
                }),
            },
            how,
        ))
    }

    /// What the automatic open-time compaction did, if it ran: `None`
    /// when the store's dead-record ratio was below threshold (or the
    /// rewrite failed and the store was kept as-is).
    pub fn compaction(&self) -> Option<&CompactReport> {
        self.inner.compaction.as_ref()
    }

    /// Replaces the miss-path verification function. The default is the
    /// real [`verify_single`]; tests inject deterministic stand-ins (e.g.
    /// one that blocks until a second client joins).
    pub fn set_verifier(
        &mut self,
        f: impl Fn(&str, &Transform, &DriverConfig) -> TransformOutcome + Send + Sync + 'static,
    ) {
        *self
            .inner
            .verifier
            .write()
            .unwrap_or_else(|e| e.into_inner()) = Arc::new(f);
    }

    /// Current counters.
    pub fn stats(&self) -> ServeStats {
        let inner = &self.inner;
        let (inflight, waiters) = {
            let map = inner.inflight.lock().unwrap_or_else(|e| e.into_inner());
            let waiters = map.values().map(|e| e.waiters.load(Ordering::SeqCst)).sum();
            (map.len(), waiters)
        };
        // Hits, misses and joins are the lifetime counts of their
        // telemetry series, which record exactly one sample per outcome.
        ServeStats {
            hits: inner.telemetry.hit.count(),
            misses: inner.telemetry.miss.count(),
            joins: inner.telemetry.join.count(),
            errors: inner.errors.load(Ordering::Relaxed),
            busy: inner.busy.load(Ordering::Relaxed),
            shed: inner.shed.load(Ordering::Relaxed),
            idle_closed: inner.idle_closed.load(Ordering::Relaxed),
            inflight,
            waiters,
            stored: inner.store.lock().unwrap_or_else(|e| e.into_inner()).len(),
            connections: inner.connections.load(Ordering::SeqCst),
            uptime_ms: inner.started.elapsed().as_millis() as u64,
        }
    }

    /// True once a `shutdown` request has been accepted.
    pub fn stopping(&self) -> bool {
        self.inner.stopping.load(Ordering::SeqCst)
    }

    /// Begins a graceful shutdown: transports stop accepting, idle
    /// connections close on their next read tick, and [`serve_unix`]
    /// enters its drain. The signal handlers' entry point — equivalent to
    /// a `shutdown` wire request, minus the acknowledgement line.
    pub fn begin_stop(&self) {
        self.inner.stopping.store(true, Ordering::SeqCst);
    }

    /// Cancels every in-flight verification through the driver's shared
    /// cancel token. The force-close half of drain: cooperative
    /// cancellation points in the solvers unwind the work within
    /// milliseconds, and waiters get their (cancelled) verdicts instead
    /// of hanging.
    pub fn cancel_inflight(&self) {
        self.inner.driver.cancel.cancel();
    }

    /// The overload and lifecycle limits this server runs under.
    pub fn limits(&self) -> &ServeLimits {
        &self.inner.limits
    }

    /// Answers one transform: store hit, in-flight join, or fresh
    /// verification (in that order). This is the whole cache discipline —
    /// both transports and the `--dedupe` client reduce to calls of this.
    ///
    /// Embedding API: never refuses. The daemon transports go through
    /// [`Server::try_check`], which applies admission control.
    pub fn check(&self, name: &str, t: &Transform) -> Answer {
        self.check_rid(name, t, "")
    }

    /// [`Server::check`] with an explicit request id, recorded on any
    /// slow-query log entry this request produces.
    pub fn check_rid(&self, name: &str, t: &Transform, rid: &str) -> Answer {
        self.check_admit(name, t, false, rid)
            .unwrap_or_else(|_| unreachable!("check() never applies admission control"))
    }

    /// Like [`Server::check`], but refuses with [`Busy`] when the request
    /// would *start* a verification past [`ServeLimits::queue_depth`].
    /// Hits and joins are always admitted — they cost no worker.
    pub fn try_check(&self, name: &str, t: &Transform) -> Result<Answer, Busy> {
        self.check_admit(name, t, true, "")
    }

    /// [`Server::try_check`] with an explicit request id.
    pub fn try_check_rid(&self, name: &str, t: &Transform, rid: &str) -> Result<Answer, Busy> {
        self.check_admit(name, t, true, rid)
    }

    /// The request id for one wire request: the client's `id` when it
    /// sent one, otherwise a daemon-minted `rq-<n>` — every request is
    /// traceable either way.
    fn mint_rid(&self, id: &str) -> String {
        if id.is_empty() {
            format!(
                "rq-{}",
                self.inner.next_rid.fetch_add(1, Ordering::Relaxed) + 1
            )
        } else {
            id.to_string()
        }
    }

    /// A point-in-time snapshot of the windowed latency telemetry (what
    /// the `stats` wire op reports as the `telemetry` block).
    pub fn telemetry(&self) -> alive_trace::TelemetrySnapshot {
        self.inner.telemetry.snapshot()
    }

    fn check_admit(
        &self,
        name: &str,
        t: &Transform,
        admit: bool,
        rid: &str,
    ) -> Result<Answer, Busy> {
        let start = Instant::now();
        let inner = &self.inner;
        let (canon, hash) = {
            let _canon_span = inner.tracer.span(metric::CANON);
            let canon = canonical_text(t);
            let hash = format!("{:016x}", fnv1a64(canon.as_bytes()));
            (canon, hash)
        };
        let canon_us = start.elapsed().as_micros() as u64;
        inner.tracer.sample(metric::CANON_US, canon_us);
        inner
            .telemetry
            .canon
            .record_at(canon_us, inner.telemetry.now_ms());
        let mut timing = RequestTiming {
            canon_us,
            ..RequestTiming::default()
        };
        loop {
            // Fast path: the store already knows.
            if let Some(answer) = self.lookup(&canon, &hash, &mut timing) {
                self.count_hit(start);
                return Ok(Answer { timing, ..answer });
            }
            // Not cached: become the leader for this canonical form, or
            // join whoever already is.
            let (entry, leader) = {
                let mut inflight = inner.inflight.lock().unwrap_or_else(|e| e.into_inner());
                match inflight.get(&canon) {
                    Some(e) => (Arc::clone(e), false),
                    None => {
                        let depth = inner.limits.queue_depth;
                        if admit && depth != 0 && inflight.len() >= depth {
                            // Taking the work would start verification
                            // number depth+1.
                            drop(inflight);
                            return Err(self.refuse(depth));
                        }
                        let e = Arc::new(Inflight::default());
                        inflight.insert(canon.clone(), Arc::clone(&e));
                        inner.tracer.gauge(metric::INFLIGHT, inflight.len() as u64);
                        (e, true)
                    }
                }
            };
            if leader {
                // Double-check the store: between this request's store
                // miss and winning leadership, the previous leader may
                // have finished (verdict persisted, entry removed). Verify
                // again and the race test's "exactly one verification"
                // guarantee is gone.
                let cached = self.lookup(&canon, &hash, &mut timing);
                // Everything before the verification starts is queue time
                // from this request's point of view.
                let queue_us = start.elapsed().as_micros() as u64;
                timing.queue_us = queue_us;
                inner.tracer.sample(metric::QUEUE_WAIT_US, queue_us);
                inner
                    .telemetry
                    .queue_wait
                    .record_at(queue_us, inner.telemetry.now_ms());
                let (answer, was_hit) = match cached {
                    Some(a) => (a, true),
                    None => {
                        let verify_start = Instant::now();
                        let a = self.verify_and_store(name, t, &canon, &hash, rid);
                        timing.verify_us = verify_start.elapsed().as_micros() as u64;
                        (a, false)
                    }
                };
                {
                    let mut slot = entry.slot.lock().unwrap_or_else(|e| e.into_inner());
                    *slot = Some(answer.clone());
                }
                entry.ready.notify_all();
                let mut inflight = inner.inflight.lock().unwrap_or_else(|e| e.into_inner());
                inflight.remove(&canon);
                inner.tracer.gauge(metric::INFLIGHT, inflight.len() as u64);
                drop(inflight);
                if was_hit {
                    self.count_hit(start);
                } else {
                    let us = start.elapsed().as_micros() as u64;
                    inner.tracer.counter(metric::MISS, 1);
                    inner.tracer.sample(metric::MISS_US, us);
                    inner.telemetry.miss.record_at(us, inner.telemetry.now_ms());
                }
                return Ok(Answer { timing, ..answer });
            }
            // Joiner: wait for the leader's verdict.
            let coalesce_start = Instant::now();
            let coalesce_span = inner.tracer.span(metric::COALESCE);
            entry.waiters.fetch_add(1, Ordering::SeqCst);
            let mut slot = entry.slot.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(answer) = slot.clone() {
                    drop(slot);
                    drop(coalesce_span);
                    entry.waiters.fetch_sub(1, Ordering::SeqCst);
                    let queue_us = coalesce_start.elapsed().as_micros() as u64;
                    timing.queue_us += queue_us;
                    let us = start.elapsed().as_micros() as u64;
                    inner.tracer.counter(metric::JOIN, 1);
                    inner.tracer.sample(metric::HIT_US, us);
                    inner.tracer.sample(metric::JOIN_US, us);
                    inner.tracer.sample(metric::QUEUE_WAIT_US, queue_us);
                    let now = inner.telemetry.now_ms();
                    inner.telemetry.join.record_at(us, now);
                    inner.telemetry.queue_wait.record_at(queue_us, now);
                    return Ok(Answer {
                        coalesced: true,
                        cached: true,
                        timing,
                        ..answer
                    });
                }
                let (guard, timeout) = entry
                    .ready
                    .wait_timeout(slot, Duration::from_secs(1))
                    .unwrap_or_else(|e| e.into_inner());
                slot = guard;
                if timeout.timed_out() && slot.is_none() {
                    // Leader vanished without filling the slot (should be
                    // impossible — verify_single isolates panics — but a
                    // service must not hang on "impossible"). Retry from
                    // the top: the store or a new leader will answer.
                    drop(slot);
                    entry.waiters.fetch_sub(1, Ordering::SeqCst);
                    break;
                }
            }
        }
    }

    /// Probes the verdict store under a `serve.lookup` span, adding the
    /// probe's time to `timing.lookup_us`.
    fn lookup(&self, canon: &str, hash: &str, timing: &mut RequestTiming) -> Option<Answer> {
        let inner = &self.inner;
        let lookup_start = Instant::now();
        let found = {
            let _lookup_span = inner.tracer.span(metric::LOOKUP);
            let store = inner.store.lock().unwrap_or_else(|e| e.into_inner());
            store.lookup(canon).map(|rec| Answer {
                hash: hash.to_string(),
                verdict: rec.verdict,
                reason: rec.reason.clone(),
                wall_ms: rec.wall_ms,
                cert: rec.cert.clone(),
                cached: true,
                coalesced: false,
                timing: RequestTiming::default(),
            })
        };
        timing.lookup_us += lookup_start.elapsed().as_micros() as u64;
        found
    }

    /// Counts one store hit for a request that started at `start`.
    fn count_hit(&self, start: Instant) {
        let inner = &self.inner;
        let us = start.elapsed().as_micros() as u64;
        inner.tracer.counter(metric::HIT, 1);
        inner.tracer.sample(metric::HIT_US, us);
        inner.telemetry.hit.record_at(us, inner.telemetry.now_ms());
    }

    /// Counts one request refused at a verification queue of `depth`,
    /// with a retry hint scaled to that queue.
    fn refuse(&self, depth: usize) -> Busy {
        self.inner.busy.fetch_add(1, Ordering::Relaxed);
        self.inner.tracer.counter(metric::BUSY, 1);
        Busy {
            retry_after_ms: (depth as u64 * 250).clamp(100, 5_000),
        }
    }

    /// Counts one request rejected before verification.
    fn count_error(&self) {
        self.inner.errors.fetch_add(1, Ordering::Relaxed);
        self.inner.tracer.counter(metric::ERROR, 1);
    }

    /// The miss path: verify, persist certificates, persist the verdict.
    /// Misses at or above the configured `--slow-ms` threshold also
    /// append a record to the slow-query log.
    fn verify_and_store(
        &self,
        name: &str,
        t: &Transform,
        canon: &str,
        hash: &str,
        rid: &str,
    ) -> Answer {
        let inner = &self.inner;
        let verifier = Arc::clone(&inner.verifier.read().unwrap_or_else(|e| e.into_inner()));
        // Per-request deadline: a driver with no timeout of its own runs
        // under the serve limit, so one pathological transform times out
        // (an honest `unknown`) instead of monopolizing a worker.
        let mut driver = inner.driver.clone();
        if driver.timeout.is_none() {
            driver.timeout = inner.limits.request_timeout;
        }
        // Thread the daemon's tracer into the verifier so solver spans
        // (typeck/encode/sat.solve) nest under this request's
        // serve.request span — unless the driver brought its own.
        if !driver.verify.ef.tracer.enabled() {
            driver.verify.ef.tracer = inner.tracer.clone();
        }
        let outcome = verifier(name, t, &driver);
        let cert = match (&inner.cert_dir, outcome.certificates.is_empty()) {
            (Some(dir), false) => {
                let mut names = Vec::new();
                for (k, cert) in outcome.certificates.iter().enumerate() {
                    let file = dir.join(format!("{hash}.{k}.cert"));
                    if std::fs::write(&file, cert.to_text()).is_ok() {
                        names.push(format!("{hash}.{k}.cert"));
                    }
                }
                names.join(";")
            }
            _ => String::new(),
        };
        let wall_ms = outcome.wall.as_millis() as u64;
        {
            let append_start = Instant::now();
            let mut store = inner.store.lock().unwrap_or_else(|e| e.into_inner());
            // A failed append (disk full, injected fault) leaves the
            // verdict un-persisted but still correct for this request;
            // the next daemon start re-verifies. Operators see it as
            // `serve.error` without a tracer attached.
            if store
                .insert(canon, outcome.kind, &outcome.detail, wall_ms, &cert)
                .is_err()
            {
                self.count_error();
            }
            drop(store);
            let append_us = append_start.elapsed().as_micros() as u64;
            inner.tracer.sample(metric::APPEND_US, append_us);
            inner
                .telemetry
                .append
                .record_at(append_us, inner.telemetry.now_ms());
        }
        if let Some((log, threshold)) = &inner.slowlog {
            if wall_ms >= *threshold {
                inner.tracer.counter(metric::SLOW, 1);
                let record = slowlog::SlowRecord {
                    rid: rid.to_string(),
                    name: name.to_string(),
                    hash: hash.to_string(),
                    verdict: outcome.kind.as_str().to_string(),
                    wall_ms,
                    threshold_ms: *threshold,
                    typeck_us: outcome.phases.typeck.as_micros() as u64,
                    encode_us: outcome.phases.encode.as_micros() as u64,
                    solve_us: outcome.phases.solve.as_micros() as u64,
                    check_us: outcome.phases.check.as_micros() as u64,
                    conflicts: outcome.conflicts,
                    retries: u64::from(outcome.retries),
                };
                let mut log = log.lock().unwrap_or_else(|e| e.into_inner());
                // A slowlog write failure is observability loss, not a
                // verification failure; count it and move on.
                if log.append(&record).is_err() {
                    self.count_error();
                }
            }
        }
        Answer {
            hash: hash.to_string(),
            verdict: outcome.kind,
            reason: outcome.detail,
            wall_ms,
            cert,
            cached: false,
            coalesced: false,
            timing: RequestTiming::default(),
        }
    }

    /// Parses `text` and answers every transform in it, returning one
    /// [`VerdictLine`] per transform in submission order. Misses are
    /// verified on up to `workers` threads; duplicates within the batch
    /// coalesce through the in-flight map like concurrent clients would.
    pub fn check_batch(&self, id: &str, rid: &str, text: &str) -> Result<Vec<VerdictLine>, String> {
        let transforms = parse_transforms(text).map_err(|e| format!("parse error: {e}"))?;
        let mut items: Vec<(usize, String, Transform)> = Vec::new();
        for (i, t) in transforms.into_iter().enumerate() {
            validate(&t).map_err(|e| format!("transform {i}: {e}"))?;
            let name = t.name.clone().unwrap_or_else(|| format!("opt{i}"));
            items.push((i, name, t));
        }
        let results: Mutex<Vec<Option<VerdictLine>>> = Mutex::new(vec![None; items.len()]);
        let next: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.inner.workers.min(items.len().max(1)) {
                scope.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some((index, name, t)) = items.get(k) else {
                        return;
                    };
                    // Each batch item is its own traceable work unit:
                    // `<rid>#<index>` keys the item's span subtree so
                    // `alive stats --request` can pull out one item.
                    let item_rid = format!("{rid}#{index}");
                    let span = self
                        .inner
                        .tracer
                        .span_with(metric::REQUEST, || item_rid.clone());
                    let start = Instant::now();
                    let answer = self.check_rid(name, t, &item_rid);
                    drop(span);
                    let line =
                        answer.into_line(id.to_string(), *index, name.clone(), item_rid, start);
                    results.lock().unwrap_or_else(|e| e.into_inner())[k] = Some(line);
                });
            }
        });
        Ok(results
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .into_iter()
            .map(|r| r.expect("every batch item produces a line"))
            .collect())
    }

    /// Checks the verification queue without taking work: `Some(Busy)`
    /// when at `queue_depth`, counting the refusal.
    fn admission_refusal(&self) -> Option<Busy> {
        let inner = &self.inner;
        let depth = inner.limits.queue_depth;
        if depth == 0 {
            return None;
        }
        let len = inner
            .inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len();
        if len < depth {
            return None;
        }
        Some(self.refuse(depth))
    }

    /// Fires the `serve` fault site for one verify/batch request: a
    /// bounded hang (a stuck handler), a clean response-write error, or a
    /// torn response (half a line on the wire, then the connection dies).
    /// The error returns propagate out of `handle_line`, which closes the
    /// connection — exactly what a real broken pipe does.
    #[cfg(feature = "fault-injection")]
    fn serve_fault(&self, out: &mut impl Write) -> std::io::Result<()> {
        use alive_sat::fault::{fire, FaultKind, FaultSite};
        match fire(FaultSite::Serve) {
            Some(FaultKind::Hang) => {
                // Bounded so an un-killed daemon still answers: stall
                // until shutdown begins or the cap elapses, then proceed.
                let start = Instant::now();
                while !self.stopping() && start.elapsed() < Duration::from_secs(2) {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Ok(())
            }
            Some(FaultKind::IoError) => Err(std::io::Error::other(
                "injected fault: response write error",
            )),
            Some(FaultKind::TornWrite) => {
                out.write_all(b"{\"id\":\"")?;
                out.flush()?;
                Err(std::io::Error::other("injected fault: torn response"))
            }
            _ => Ok(()),
        }
    }

    /// Handles one request line, writing response line(s) to `out`.
    /// Returns `false` when the connection should close (shutdown).
    pub fn handle_line(&self, line: &str, out: &mut impl Write) -> std::io::Result<bool> {
        let request = match Request::parse(line) {
            Ok(r) => r,
            Err(e) => {
                self.count_error();
                writeln!(out, "{}", render_error("", &e))?;
                return Ok(true);
            }
        };
        match request {
            Request::Verify { id, text } => {
                #[cfg(feature = "fault-injection")]
                self.serve_fault(out)?;
                // The request id: client-supplied when non-empty, minted
                // otherwise, so every wire request is traceable.
                let rid = self.mint_rid(&id);
                let span = self.inner.tracer.span_with(metric::REQUEST, || rid.clone());
                let start = Instant::now();
                let parsed = parse_transforms(&text)
                    .map_err(|e| format!("parse error: {e}"))
                    .and_then(|ts| match ts.len() {
                        1 => Ok(ts.into_iter().next().unwrap()),
                        n => Err(format!("expected exactly one transform, got {n}")),
                    })
                    .and_then(|t| {
                        validate(&t).map_err(|e| e.to_string())?;
                        Ok(t)
                    });
                match parsed {
                    Ok(t) => {
                        let name = t.name.clone().unwrap_or_else(|| "opt0".to_string());
                        // Verification runs on this connection thread, so
                        // its SAT-level spans nest under serve.request.
                        let answer = match self.try_check_rid(&name, &t, &rid) {
                            Ok(a) => a,
                            Err(b) => {
                                drop(span);
                                writeln!(out, "{}", render_busy(&id, b.retry_after_ms))?;
                                return Ok(true);
                            }
                        };
                        let lineout = answer.into_line(id, 0, name, rid, start);
                        drop(span);
                        writeln!(out, "{}", lineout.render())?;
                    }
                    Err(e) => {
                        drop(span);
                        self.count_error();
                        writeln!(out, "{}", render_error(&id, &e))?;
                    }
                }
                Ok(true)
            }
            Request::Batch { id, text } => {
                #[cfg(feature = "fault-injection")]
                self.serve_fault(out)?;
                // Coarse up-front admission for the whole batch: inside
                // it, the bounded worker pool caps parallelism anyway.
                if let Some(b) = self.admission_refusal() {
                    writeln!(out, "{}", render_busy(&id, b.retry_after_ms))?;
                    return Ok(true);
                }
                let rid = self.mint_rid(&id);
                match self.check_batch(&id, &rid, &text) {
                    Ok(lines) => {
                        let hits = lines.iter().filter(|l| l.cached).count();
                        let misses = lines.len() - hits;
                        for l in &lines {
                            writeln!(out, "{}", l.render())?;
                        }
                        writeln!(out, "{}", render_done(&id, lines.len(), hits, misses))?;
                    }
                    Err(e) => {
                        self.count_error();
                        writeln!(out, "{}", render_error(&id, &e))?;
                    }
                }
                Ok(true)
            }
            Request::Stats { id } => {
                let s = self.stats();
                let line = StatsLine {
                    id,
                    proto: PROTO_VERSION,
                    hits: s.hits,
                    misses: s.misses,
                    joins: s.joins,
                    errors: s.errors,
                    busy: s.busy,
                    shed: s.shed,
                    idle_closed: s.idle_closed,
                    inflight: s.inflight as u64,
                    stored: s.stored as u64,
                    connections: s.connections as u64,
                    uptime_ms: s.uptime_ms,
                    telemetry: Some((&self.inner.telemetry.snapshot()).into()),
                };
                writeln!(out, "{}", line.render())?;
                Ok(true)
            }
            Request::Shutdown { id } => {
                self.inner.stopping.store(true, Ordering::SeqCst);
                writeln!(out, "{}", render_shutdown(&id))?;
                Ok(false)
            }
        }
    }
}

/// Runs one connection to completion: request lines in, response lines
/// out, flushed per request so pipelined clients see answers promptly.
pub fn handle_connection(
    server: &Server,
    reader: impl BufRead,
    mut writer: impl Write,
) -> std::io::Result<()> {
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let keep_going = server.handle_line(&line, &mut writer)?;
        writer.flush()?;
        if !keep_going {
            break;
        }
    }
    Ok(())
}

/// Serves requests from stdin to stdout until EOF or `shutdown` (the
/// test/pipeline transport: `alive serve --stdio`).
pub fn serve_stdio(server: &Server) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    handle_connection(server, stdin.lock(), stdout.lock())
}

/// Binds a unix socket at `path` and serves until a `shutdown` request
/// (or [`Server::begin_stop`]). Each connection gets its own thread; they
/// all share the server's store and in-flight map, so clients racing on
/// one transform coalesce.
///
/// Lifecycle, in order of defense:
/// * an existing socket file is **probed**, never blindly deleted — a
///   live daemon is a refusal to start, only a connection-refused file
///   (dead daemon) is removed;
/// * past [`ServeLimits::max_connections`], a new connection gets one
///   `busy` line and is closed (`serve.shed`);
/// * connections that send nothing for [`ServeLimits::idle_timeout`] are
///   closed (`serve.idle_close`), so a slow-loris client cannot pin the
///   daemon open;
/// * shutdown stops accepting, waits up to [`ServeLimits::drain_timeout`]
///   for in-flight connections, then cancels their verifications and
///   force-closes; the drain duration is sampled as `serve.drain_ms`.
#[cfg(unix)]
pub fn serve_unix(server: &Server, path: &std::path::Path) -> std::io::Result<()> {
    use std::os::unix::net::{UnixListener, UnixStream};
    match UnixStream::connect(path) {
        Ok(_) => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AddrInUse,
                format!(
                    "{}: a live daemon already answers on this socket; refusing to start",
                    path.display()
                ),
            ));
        }
        // Nothing there: the common first start.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        // A socket file nobody listens on: the previous daemon died
        // without cleanup. Safe — and necessary — to remove.
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
            std::fs::remove_file(path)?;
        }
        // Anything else (not a socket, permission trouble): this is not
        // our stale file to delete.
        Err(e) => return Err(e),
    }
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let inner = &server.inner;
    let mut threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !server.stopping() {
        // Reap finished connection threads so the vec stays bounded by
        // the number of *live* connections, not total ever accepted.
        threads.retain(|t| !t.is_finished());
        match listener.accept() {
            Ok((stream, _)) => {
                let cap = inner.limits.max_connections;
                if cap != 0 && inner.connections.load(Ordering::SeqCst) >= cap {
                    inner.shed.fetch_add(1, Ordering::Relaxed);
                    inner.tracer.counter(metric::SHED, 1);
                    let mut stream = stream;
                    let _ = stream.set_nonblocking(false);
                    // Best-effort refusal line; dropping the stream closes it.
                    let _ = writeln!(stream, "{}", render_busy("", 1_000));
                    continue;
                }
                stream.set_nonblocking(false)?;
                inner.connections.fetch_add(1, Ordering::SeqCst);
                let server = server.clone();
                threads.push(std::thread::spawn(move || {
                    let _ = serve_socket_connection(&server, stream);
                    server.inner.connections.fetch_sub(1, Ordering::SeqCst);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    }
    // Drain: in-flight connections notice `stopping` at their next read
    // tick and close once idle; wait for them up to the limit.
    let drain_start = Instant::now();
    while inner.connections.load(Ordering::SeqCst) > 0
        && drain_start.elapsed() < inner.limits.drain_timeout
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    if inner.connections.load(Ordering::SeqCst) > 0 {
        // Stragglers are mid-verification. Cancel the work — the solvers'
        // cooperative cancellation points unwind in milliseconds and the
        // clients still get (cancelled) verdict lines — then give the
        // threads a short grace to flush and exit.
        server.cancel_inflight();
        let grace = Instant::now();
        while inner.connections.load(Ordering::SeqCst) > 0
            && grace.elapsed() < Duration::from_millis(500)
        {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    inner
        .tracer
        .sample(metric::DRAIN_MS, drain_start.elapsed().as_millis() as u64);
    for t in threads {
        if t.is_finished() {
            let _ = t.join();
        }
        // Still running: abandoned (the handle drop detaches). A thread
        // that survived cancel + grace is wedged on something external;
        // blocking exit on it would turn one bad client into a hung
        // daemon, the exact wedge drain exists to prevent.
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// One socket connection: a poll-style read loop over 100 ms ticks so the
/// thread can notice shutdown and idle expiry without a dedicated timer.
/// Partial lines are preserved across ticks; requests are dispatched to
/// [`Server::handle_line`] as each newline completes.
#[cfg(unix)]
fn serve_socket_connection(
    server: &Server,
    stream: std::os::unix::net::UnixStream,
) -> std::io::Result<()> {
    use std::io::Read;
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut writer = stream.try_clone()?;
    let mut stream = stream;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut last_data = Instant::now();
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // client EOF
            Ok(n) => {
                last_data = Instant::now();
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                    if line.trim().is_empty() {
                        continue;
                    }
                    let keep_going = server.handle_line(&line, &mut writer)?;
                    writer.flush()?;
                    if !keep_going {
                        return Ok(());
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if server.stopping() {
                    // Draining and this connection is between requests:
                    // nothing in flight to finish, so close it.
                    return Ok(());
                }
                let idle = server.inner.limits.idle_timeout;
                if idle != Duration::ZERO && last_data.elapsed() >= idle {
                    server.inner.idle_closed.fetch_add(1, Ordering::Relaxed);
                    server.inner.tracer.counter(metric::IDLE_CLOSE, 1);
                    return Ok(());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}
