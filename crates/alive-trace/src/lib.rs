//! Structured tracing, metrics, and per-phase profiling for the alive-rs
//! solver stack.
//!
//! The paper's authors learned where Alive got stuck (four
//! multiplication-heavy transforms timing out) by *looking at where the
//! time went*. This crate is that instrument for the reproduction: a
//! zero-dependency event layer recording **spans** (named, nested,
//! per-thread time intervals: `pool.task`, `typeck`, `encode`, `blast`,
//! `cegis.round`, `sat.solve`, `check-model`, `store.append`),
//! **counters** (conflicts, propagations, restarts, gates per op kind,
//! CEGIS rounds), **gauges**, and **histogram samples** (learned-clause
//! lengths, queue wait), so every verdict comes with an explainable
//! timeline.
//!
//! # Zero cost when off
//!
//! [`Tracer`] mirrors the `ProofLogger` pattern from the SAT solver: the
//! default tracer is *disabled* and every instrumentation site costs one
//! branch on an `Option` — no clock read, no allocation, no formatting.
//! Arguments that would allocate are passed as closures and only invoked
//! when a sink is installed.
//!
//! ```
//! use alive_trace::{Tracer, MemorySink};
//! use std::sync::Arc;
//!
//! let disabled = Tracer::disabled();
//! assert!(!disabled.enabled());
//! { let _s = disabled.span("sat.solve"); } // one branch, nothing recorded
//!
//! let sink = Arc::new(MemorySink::new());
//! let tracer = Tracer::new(Box::new(Arc::clone(&sink)));
//! {
//!     let _s = tracer.span("sat.solve");
//!     tracer.counter("sat.conflicts", 42);
//! }
//! assert_eq!(sink.snapshot().len(), 3); // start, counter, end
//! ```
//!
//! # Sinks
//!
//! A [`TraceSink`] receives every [`Event`]. Provided sinks:
//!
//! * [`JsonlSink`] — streams CRC-sealed JSONL (`alive-trace/v1`, the same
//!   FNV-1a seal as the verdict store) for `--trace <file>`;
//! * [`StatsSink`] — live aggregation for the `--metrics` table, the
//!   same fold (and table) as `alive stats` on the run's trace file;
//! * [`MemorySink`] — event capture for tests;
//! * [`TeeSink`] — fan-out to several sinks.
//!
//! The [`stats`] module reads a trace file back, validates nesting and
//! CRCs, and computes per-phase breakdowns, top-N slowest tasks, and
//! flamegraph-style folded stacks (the `alive stats` subcommand).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hist;
pub mod jsonl;
pub mod sealed;
pub mod serve;
pub mod stats;
pub mod telemetry;

pub use hist::Histogram;
pub use jsonl::{
    read_trace, read_trace_lenient, JsonlSink, LenientTrace, TraceEvent, TraceReadError,
    TRACE_SCHEMA,
};
pub use stats::{StatsSink, TraceStats};
pub use telemetry::{SeriesSnapshot, Telemetry, TelemetrySnapshot, Windowed};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What kind of record an [`Event`] is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A span opened (`id`, `parent`, `name`, optional `arg`).
    Start,
    /// A span closed (`id`, `name`; `value` is the duration in µs).
    End,
    /// A monotonic counter increment (`name`; `value` is the delta).
    Counter,
    /// A point-in-time level (`name`; `value` is the level).
    Gauge,
    /// One histogram sample (`name`; `value` is the sample).
    Sample,
    /// An instant event (`name`, optional `arg`; `value` is a payload,
    /// e.g. the elapsed µs of a detached task).
    Mark,
}

impl EventKind {
    /// Stable lower-case label used in the JSONL form.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Start => "start",
            EventKind::End => "end",
            EventKind::Counter => "counter",
            EventKind::Gauge => "gauge",
            EventKind::Sample => "sample",
            EventKind::Mark => "mark",
        }
    }

    /// Inverse of [`EventKind::as_str`].
    pub fn from_label(s: &str) -> Option<EventKind> {
        Some(match s {
            "start" => EventKind::Start,
            "end" => EventKind::End,
            "counter" => EventKind::Counter,
            "gauge" => EventKind::Gauge,
            "sample" => EventKind::Sample,
            "mark" => EventKind::Mark,
            _ => return None,
        })
    }
}

/// One trace record, as emitted by a live [`Tracer`].
///
/// Span names are `&'static str` by design: instrumentation sites name
/// their phase with a literal, so emitting an event never allocates for
/// the name. `arg` carries the per-instance refinement (typing index,
/// CEGIS round, transform name) and is only built when a sink is
/// installed.
#[derive(Clone, Debug)]
pub struct Event {
    /// Record kind.
    pub kind: EventKind,
    /// Span id (`Start`/`End`; 0 otherwise). Ids are unique per tracer.
    pub id: u64,
    /// Enclosing span id at emission time (0 = root).
    pub parent: u64,
    /// Trace-local thread id of the emitting thread.
    pub tid: u32,
    /// Microseconds since the tracer's epoch.
    pub us: u64,
    /// Phase / metric name (static taxonomy, see docs/OBSERVABILITY.md).
    pub name: &'static str,
    /// Optional per-instance argument (empty = none).
    pub arg: String,
    /// Kind-dependent payload: `End` duration µs, counter delta,
    /// gauge/sample value, mark payload.
    pub value: u64,
}

/// A destination for trace events.
///
/// Sinks are shared across worker threads, so they take `&self` and must
/// be `Send + Sync`; interior mutability is the sink's business.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Records one event. Called on the instrumented thread; keep it
    /// cheap (format-outside-lock, bounded critical sections).
    fn record(&self, event: &Event);

    /// Flushes buffered output (no-op by default).
    fn flush(&self) {}
}

impl<T: TraceSink> TraceSink for Arc<T> {
    fn record(&self, event: &Event) {
        (**self).record(event);
    }

    fn flush(&self) {
        (**self).flush();
    }
}

/// Shared innards of an enabled tracer.
#[derive(Debug)]
struct TracerInner {
    sink: Box<dyn TraceSink>,
    epoch: Instant,
    next_id: AtomicU64,
}

/// The instrumentation handle threaded through the solver stack.
///
/// Cloning is cheap (an `Arc` clone, or a no-op when disabled); every
/// layer that wants to emit events holds its own clone. The disabled
/// tracer — [`Tracer::disabled`], also [`Default`] — reduces every
/// emission site to a single branch.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

/// Process-wide allocator for trace-local thread ids.
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// This thread's trace-local id (assigned on first use).
    static TID: Cell<u32> = const { Cell::new(u32::MAX) };
    /// The stack of open span ids on this thread (parent linkage).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// This thread's trace-local id, assigning one on first use.
fn current_tid() -> u32 {
    TID.with(|t| {
        let v = t.get();
        if v != u32::MAX {
            return v;
        }
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

impl Tracer {
    /// The disabled tracer: every site costs one branch, nothing is
    /// recorded.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer recording into `sink`. The epoch (µs origin of every
    /// event) is the moment of this call.
    pub fn new(sink: Box<dyn TraceSink>) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                sink,
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
            })),
        }
    }

    /// `true` when a sink is installed. Use to gate argument
    /// construction that [`Tracer`]'s closure-taking methods don't cover.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    #[inline]
    fn now_us(inner: &TracerInner) -> u64 {
        inner.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span named `name`; the span closes (emitting its duration)
    /// when the returned guard drops.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        self.span_with(name, String::new)
    }

    /// Like [`Tracer::span`], with a lazily-built argument (typing index,
    /// transform name, ...). The closure runs only when enabled.
    #[inline]
    pub fn span_with(&self, name: &'static str, arg: impl FnOnce() -> String) -> Span {
        let Some(inner) = &self.inner else {
            return Span { active: None };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        let start_us = Self::now_us(inner);
        inner.sink.record(&Event {
            kind: EventKind::Start,
            id,
            parent,
            tid: current_tid(),
            us: start_us,
            name,
            arg: arg(),
            value: 0,
        });
        Span {
            active: Some(SpanActive {
                inner: Arc::clone(inner),
                id,
                name,
                start_us,
            }),
        }
    }

    /// Increments counter `name` by `delta`.
    #[inline]
    pub fn counter(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            if delta == 0 {
                return;
            }
            self.emit(inner, EventKind::Counter, name, String::new(), delta);
        }
    }

    /// Like [`Tracer::counter`], with a lazily-built sub-key refining the
    /// counter name (e.g. `blast.gates` with the op kind as argument —
    /// aggregators fold the pair into `blast.gates.<arg>`). The closure
    /// runs only when enabled and the delta is non-zero.
    #[inline]
    pub fn counter_with(&self, name: &'static str, arg: impl FnOnce() -> String, delta: u64) {
        if let Some(inner) = &self.inner {
            if delta == 0 {
                return;
            }
            self.emit(inner, EventKind::Counter, name, arg(), delta);
        }
    }

    /// Records gauge `name` at level `value`.
    #[inline]
    pub fn gauge(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            self.emit(inner, EventKind::Gauge, name, String::new(), value);
        }
    }

    /// Records one histogram sample for `name`.
    #[inline]
    pub fn sample(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            self.emit(inner, EventKind::Sample, name, String::new(), value);
        }
    }

    /// Records an instant event with a lazily-built argument and a
    /// numeric payload (e.g. `pool.detach` with the worker id in the
    /// argument and the task's elapsed µs in the payload).
    #[inline]
    pub fn mark(&self, name: &'static str, arg: impl FnOnce() -> String, value: u64) {
        if let Some(inner) = &self.inner {
            self.emit(inner, EventKind::Mark, name, arg(), value);
        }
    }

    fn emit(
        &self,
        inner: &TracerInner,
        kind: EventKind,
        name: &'static str,
        arg: String,
        value: u64,
    ) {
        let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
        inner.sink.record(&Event {
            kind,
            id: 0,
            parent,
            tid: current_tid(),
            us: Self::now_us(inner),
            name,
            arg,
            value,
        });
    }

    /// Flushes the sink (call before process exit: worker threads
    /// detached by the watchdog keep the tracer alive, so relying on
    /// `Drop` is not enough).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }
}

/// The live half of a span guard.
#[derive(Debug)]
struct SpanActive {
    inner: Arc<TracerInner>,
    id: u64,
    name: &'static str,
    start_us: u64,
}

/// RAII guard for an open span; dropping it emits the `End` event with
/// the measured duration. Obtained from [`Tracer::span`]; a disabled
/// tracer returns an inert guard.
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing"]
pub struct Span {
    active: Option<SpanActive>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        // Pop our id; tolerate (but do not mask) foreign tops, so a leaked
        // guard on another thread cannot poison this thread's stack.
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&a.id) {
                s.pop();
            } else if let Some(pos) = s.iter().rposition(|&x| x == a.id) {
                s.remove(pos);
            }
        });
        let end_us = Tracer::now_us(&a.inner);
        a.inner.sink.record(&Event {
            kind: EventKind::End,
            id: a.id,
            parent: 0,
            tid: current_tid(),
            us: end_us,
            name: a.name,
            arg: String::new(),
            value: end_us.saturating_sub(a.start_us),
        });
    }
}

/// An in-memory sink capturing every event (tests, programmatic
/// inspection).
#[derive(Debug, Default)]
pub struct MemorySink {
    events: std::sync::Mutex<Vec<Event>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemorySink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event.clone());
    }
}

/// Fans every event out to several sinks (e.g. a trace file *and* the
/// live stats aggregator).
#[derive(Debug)]
pub struct TeeSink {
    sinks: Vec<Box<dyn TraceSink>>,
}

impl TeeSink {
    /// Creates a tee over the given sinks.
    pub fn new(sinks: Vec<Box<dyn TraceSink>>) -> TeeSink {
        TeeSink { sinks }
    }
}

impl TraceSink for TeeSink {
    fn record(&self, event: &Event) {
        for s in &self.sinks {
            s.record(event);
        }
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_and_allocates_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        let _s = t.span("sat.solve");
        t.counter("sat.conflicts", 3);
        t.sample("sat.learned_len", 9);
        t.mark("pool.detach", || panic!("arg closure must not run"), 1);
        // Nothing to assert beyond "did not panic": there is no sink.
    }

    #[test]
    fn spans_nest_and_carry_parents() {
        let sink = Arc::new(MemorySink::new());
        let t = Tracer::new(Box::new(Arc::clone(&sink)));
        {
            let _outer = t.span("pool.task");
            {
                let _inner = t.span_with("typing", || "0".to_string());
                t.counter("sat.conflicts", 5);
            }
        }
        let ev = sink.snapshot();
        assert_eq!(ev.len(), 5); // start start counter end end
        assert_eq!(ev[0].kind, EventKind::Start);
        assert_eq!(ev[0].parent, 0);
        assert_eq!(ev[1].kind, EventKind::Start);
        assert_eq!(ev[1].parent, ev[0].id);
        assert_eq!(ev[1].arg, "0");
        assert_eq!(ev[2].kind, EventKind::Counter);
        assert_eq!(ev[2].parent, ev[1].id);
        assert_eq!(ev[2].value, 5);
        assert_eq!(ev[3].kind, EventKind::End);
        assert_eq!(ev[3].id, ev[1].id);
        assert_eq!(ev[4].id, ev[0].id);
        assert!(ev[4].us >= ev[0].us);
    }

    #[test]
    fn zero_counter_deltas_are_suppressed() {
        let sink = Arc::new(MemorySink::new());
        let t = Tracer::new(Box::new(Arc::clone(&sink)));
        t.counter("sat.restarts", 0);
        assert!(sink.is_empty());
    }

    #[test]
    fn tee_reaches_every_sink() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let t = Tracer::new(Box::new(TeeSink::new(vec![
            Box::new(Arc::clone(&a)),
            Box::new(Arc::clone(&b)),
        ])));
        t.gauge("pool.queue_depth", 7);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn threads_get_distinct_tids() {
        let sink = Arc::new(MemorySink::new());
        let t = Tracer::new(Box::new(Arc::clone(&sink)));
        let t2 = t.clone();
        std::thread::spawn(move || t2.counter("sat.conflicts", 1))
            .join()
            .unwrap();
        t.counter("sat.conflicts", 1);
        let ev = sink.snapshot();
        assert_eq!(ev.len(), 2);
        assert_ne!(ev[0].tid, ev[1].tid);
    }
}
