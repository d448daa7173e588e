//! The `alive-trace/v1` JSONL stream: CRC-sealed line-oriented trace
//! files written by [`JsonlSink`] and read back by [`read_trace`].
//!
//! Every line is a [sealed](crate::sealed) JSON object: its last field is
//! `"crc"`, the FNV-1a 64 hash of the bytes before it. The first line is
//! a header naming the schema; each following line is one event:
//!
//! ```json
//! {"trace":"alive-trace/v1","crc":"..."}
//! {"ev":"start","id":1,"parent":0,"tid":0,"us":12,"name":"pool.task","arg":"mul_shift","crc":"..."}
//! {"ev":"counter","tid":0,"us":90,"name":"sat.conflicts","arg":"","value":17,"crc":"..."}
//! {"ev":"end","id":1,"tid":0,"us":951,"name":"pool.task","value":939,"crc":"..."}
//! ```
//!
//! `start`, `counter`, and `mark` lines carry `arg` (a counter's arg is
//! a sub-key, e.g. the op kind under `blast.gates`); `end` carries the
//! duration in `value`; `counter`/`gauge`/`sample` carry their
//! delta/level/sample in `value`. Field order is fixed and parsing is
//! strict — any deviation (reordered keys, truncated line, bad CRC) makes
//! a line bad, and both readers apply the [`replay`] policy to bad lines.

use crate::sealed::{first_line, json_escape, read, replay, seal, unseal, Scanner};
use crate::{Event, EventKind, TraceSink};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Schema tag carried in the header line of every trace file.
pub const TRACE_SCHEMA: &str = "alive-trace/v1";

/// Which optional fields a kind's line carries, in line order: `id` and
/// `parent` before the shared `tid`/`us`/`name`, then `arg` and `value`.
/// The writer and the parser both follow this one table.
fn fields(kind: EventKind) -> (bool, bool, bool, bool) {
    use EventKind::*;
    let id = matches!(kind, Start | End);
    let parent = kind == Start;
    let arg = matches!(kind, Start | Counter | Mark);
    let value = kind != Start;
    (id, parent, arg, value)
}

/// Renders one event as a sealed JSONL line (no trailing newline).
fn event_line(ev: &Event) -> String {
    let (id, parent, arg, value) = fields(ev.kind);
    let mut body = format!("{{\"ev\":\"{}\"", ev.kind.as_str());
    if id {
        body.push_str(&format!(",\"id\":{}", ev.id));
    }
    if parent {
        body.push_str(&format!(",\"parent\":{}", ev.parent));
    }
    body.push_str(&format!(
        ",\"tid\":{},\"us\":{},\"name\":\"{}\"",
        ev.tid,
        ev.us,
        json_escape(ev.name)
    ));
    if arg {
        body.push_str(&format!(",\"arg\":\"{}\"", json_escape(&ev.arg)));
    }
    if value {
        body.push_str(&format!(",\"value\":{}", ev.value));
    }
    seal(&body)
}

/// The header line's body, before its seal.
fn header_body() -> String {
    format!("{{\"trace\":\"{TRACE_SCHEMA}\"")
}

/// A [`TraceSink`] streaming sealed JSONL to a file.
///
/// Lines are formatted outside the lock; the critical section is one
/// buffered write. I/O errors after creation are swallowed (tracing is
/// advisory and must never take the verification run down with it), but
/// the first one latches and is reported by [`JsonlSink::had_error`].
///
/// The sink follows the workspace durability discipline (mirrored here
/// locally — this crate is dependency-free and sits *below* the
/// `alive_verifier::durable` seam): the trace file's directory entry is
/// fsync'd at creation, [`TraceSink::flush`] follows the buffer flush
/// with `sync_data`, and neither result is ever silently dropped — both
/// latch into [`JsonlSink::had_error`].
#[derive(Debug)]
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
    errored: std::sync::atomic::AtomicBool,
}

/// Fsyncs the directory containing `path` so the freshly created trace
/// file's *name* is durable, not just its contents.
fn fsync_parent(path: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        File::open(parent)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

impl JsonlSink {
    /// Creates (truncating) the trace file, writes the header line, and
    /// makes the file's directory entry durable.
    pub fn create(path: &Path) -> std::io::Result<JsonlSink> {
        let file = File::create(path)?;
        let mut out = BufWriter::new(file);
        let header = seal(&header_body());
        writeln!(out, "{header}")?;
        fsync_parent(path)?;
        Ok(JsonlSink {
            out: Mutex::new(out),
            errored: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// `true` if any write or flush failed since creation.
    pub fn had_error(&self) -> bool {
        self.errored.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn note(&self, r: std::io::Result<()>) {
        if r.is_err() {
            self.errored
                .store(true, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: &Event) {
        let line = event_line(event);
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        self.note(writeln!(out, "{line}"));
    }

    fn flush(&self) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        // Flush the userspace buffer, then fsync: a flushed-but-unsynced
        // trace still evaporates on power loss. Both results latch.
        self.note(out.flush());
        self.note(out.get_ref().sync_data());
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        // Best-effort fallback; the CLI flushes explicitly because
        // detached worker threads can keep the sink alive past exit.
        TraceSink::flush(self);
    }
}

/// One parsed trace event (owned strings, unlike the live [`Event`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Record kind.
    pub kind: EventKind,
    /// Span id (`Start`/`End`; 0 otherwise).
    pub id: u64,
    /// Enclosing span id at emission (`Start` only; 0 = root).
    pub parent: u64,
    /// Trace-local thread id.
    pub tid: u32,
    /// Microseconds since the trace epoch.
    pub us: u64,
    /// Phase / metric name.
    pub name: String,
    /// Optional argument (`Start`/`Mark`; empty = none).
    pub arg: String,
    /// Kind-dependent payload (see [`Event::value`]).
    pub value: u64,
}

/// Why a trace file failed to load.
#[derive(Debug)]
pub enum TraceReadError {
    /// The file could not be opened or read.
    Io(std::io::Error),
    /// The first line is missing or is not a valid `alive-trace/v1`
    /// header.
    BadHeader,
    /// Line `.0` (1-based) failed CRC verification or schema parsing.
    BadLine(usize),
}

impl std::fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceReadError::Io(e) => write!(f, "cannot read trace: {e}"),
            TraceReadError::BadHeader => {
                write!(
                    f,
                    "not an {TRACE_SCHEMA} trace (bad or missing header line)"
                )
            }
            TraceReadError::BadLine(n) => {
                write!(
                    f,
                    "trace line {n}: bad CRC or malformed {TRACE_SCHEMA} record"
                )
            }
        }
    }
}

impl std::error::Error for TraceReadError {}

impl From<std::io::Error> for TraceReadError {
    fn from(e: std::io::Error) -> TraceReadError {
        TraceReadError::Io(e)
    }
}

/// Parses one sealed line (without its trailing newline) into an event.
fn parse_event_line(line: &str) -> Option<TraceEvent> {
    let mut s = Scanner::new(unseal(line)?);
    s.lit("{\"ev\":\"")?;
    let kind = EventKind::from_label(&s.string_body()?)?;
    s.lit("\"")?;
    let (id, parent, arg, value) = fields(kind);
    let mut ev = TraceEvent {
        kind,
        id: 0,
        parent: 0,
        tid: 0,
        us: 0,
        name: String::new(),
        arg: String::new(),
        value: 0,
    };
    if id {
        s.lit(",\"id\":")?;
        ev.id = s.number()?;
    }
    if parent {
        s.lit(",\"parent\":")?;
        ev.parent = s.number()?;
    }
    s.lit(",\"tid\":")?;
    ev.tid = u32::try_from(s.number()?).ok()?;
    s.lit(",\"us\":")?;
    ev.us = s.number()?;
    s.lit(",\"name\":\"")?;
    ev.name = s.string_body()?;
    s.lit("\"")?;
    if arg {
        s.lit(",\"arg\":\"")?;
        ev.arg = s.string_body()?;
        s.lit("\"")?;
    }
    if value {
        s.lit(",\"value\":")?;
        ev.value = s.number()?;
    }
    s.at_end().then_some(ev)
}

/// Whether `line` is the schema header.
fn is_header(line: &str) -> bool {
    unseal(line) == Some(header_body().as_str())
}

/// Loads a trace file, verifying the header and every line's CRC and
/// schema. Strict: any malformed line, a torn tail included, fails the
/// load with its line number — a trace that fails here is a bug or an
/// unflushed write, and the CI validation job wants to know.
pub fn read_trace(path: &Path) -> Result<Vec<TraceEvent>, TraceReadError> {
    let text = read(path)?;
    if !is_header(first_line(&text)) {
        return Err(TraceReadError::BadHeader);
    }
    let trace =
        replay(&text, true, parse_event_line).map_err(|d| TraceReadError::BadLine(d.line))?;
    if trace.discarded > 0 {
        return Err(TraceReadError::BadLine(trace.records.len() + 2));
    }
    Ok(trace.records)
}

/// Result of a [lenient](read_trace_lenient) trace load: every event that
/// was readable before the first defect, plus a human-readable warning if
/// anything was wrong with the file.
#[derive(Debug)]
pub struct LenientTrace {
    /// Events read before the first malformed line (all of them if the
    /// file is intact).
    pub events: Vec<TraceEvent>,
    /// Present when the file was empty, missing its header, or had a torn
    /// or corrupt tail; describes what was skipped.
    pub warning: Option<String>,
}

/// Loads a trace file tolerantly: an empty file, a missing/corrupt header,
/// or a torn tail (e.g. the process died mid-write) yields the readable
/// prefix plus a warning instead of an error. *Mid-file* corruption — a
/// bad line with any line after it — is still refused loudly
/// ([`TraceReadError::BadLine`]): that is damage, not an interrupted
/// write, and silently averaging over half a trace would mislead. Both
/// readers apply the one [`replay`] policy; this one reports a torn tail
/// as a warning where [`read_trace`] fails. Interactive consumers
/// (`alive stats`) use this; CI validation keeps the strict reader.
pub fn read_trace_lenient(path: &Path) -> Result<LenientTrace, TraceReadError> {
    let text = read(path)?;
    let warned = |warning: String| {
        Ok(LenientTrace {
            events: Vec::new(),
            warning: Some(warning),
        })
    };
    if text.is_empty() {
        return warned("trace file is empty".into());
    }
    if !is_header(first_line(&text)) {
        return warned(format!(
            "not an {TRACE_SCHEMA} trace (bad or truncated header line); no events loaded"
        ));
    }
    let trace =
        replay(&text, true, parse_event_line).map_err(|d| TraceReadError::BadLine(d.line))?;
    let warning = (trace.discarded > 0).then(|| {
        format!(
            "torn or corrupt trace record at line {}; showing the {} events before it",
            trace.records.len() + 2,
            trace.records.len()
        )
    });
    Ok(LenientTrace {
        events: trace.records,
        warning,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;
    use std::sync::Arc;

    fn roundtrip(ev: &Event) -> TraceEvent {
        parse_event_line(&event_line(ev)).expect("line must round-trip")
    }

    fn base(kind: EventKind) -> Event {
        Event {
            kind,
            id: 7,
            parent: 3,
            tid: 2,
            us: 12345,
            name: "pool.task",
            arg: String::new(),
            value: 99,
        }
    }

    #[test]
    fn every_kind_round_trips() {
        for kind in [
            EventKind::Start,
            EventKind::End,
            EventKind::Counter,
            EventKind::Gauge,
            EventKind::Sample,
            EventKind::Mark,
        ] {
            let mut ev = base(kind);
            if matches!(kind, EventKind::Start | EventKind::Mark) {
                ev.arg = "weird \"arg\"\\with\nescapes\u{1}".to_string();
            }
            let got = roundtrip(&ev);
            assert_eq!(got.kind, kind);
            assert_eq!(got.name, ev.name);
            assert_eq!(got.arg, ev.arg);
            match kind {
                EventKind::Start => {
                    assert_eq!((got.id, got.parent), (ev.id, ev.parent));
                }
                EventKind::End => {
                    assert_eq!((got.id, got.value), (ev.id, ev.value));
                }
                _ => assert_eq!(got.value, ev.value),
            }
            assert_eq!((got.tid, got.us), (ev.tid, ev.us));
        }
    }

    #[test]
    fn corrupted_lines_are_rejected() {
        let line = event_line(&base(EventKind::Counter));
        assert!(parse_event_line(&line).is_some());
        // Flip a digit inside the body: CRC must catch it.
        let tampered = line.replacen("12345", "12346", 1);
        assert!(parse_event_line(&tampered).is_none());
        // Truncation must be caught too.
        assert!(parse_event_line(&line[..line.len() - 4]).is_none());
    }

    #[test]
    fn file_round_trip_via_sink() {
        let dir = std::env::temp_dir().join(format!("alive-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        {
            let sink = Arc::new(JsonlSink::create(&path).unwrap());
            let t = Tracer::new(Box::new(Arc::clone(&sink)));
            {
                let _s = t.span_with("pool.task", || "add_nsw".to_string());
                t.counter("sat.conflicts", 4);
            }
            t.flush();
            assert!(!sink.had_error());
        }
        let events = read_trace(&path).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::Start);
        assert_eq!(events[0].arg, "add_nsw");
        assert_eq!(events[2].kind, EventKind::End);
        assert_eq!(events[2].id, events[0].id);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_or_bad_header_is_rejected() {
        let dir = std::env::temp_dir().join(format!("alive-trace-hdr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        std::fs::write(&path, "{\"journal\":\"alive-journal/v1\"}\n").unwrap();
        assert!(matches!(read_trace(&path), Err(TraceReadError::BadHeader)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
