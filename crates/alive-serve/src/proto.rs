//! The `alive serve` wire protocol: line-delimited JSON.
//!
//! One request per line in, one or more response lines out. The format is
//! deliberately trivial — flat JSON objects with string/number/bool
//! fields — so any language (or a shell script with `printf`) can be a
//! client. Field order never matters on input and is fixed on output.
//!
//! # Requests
//!
//! ```text
//! {"op":"verify","id":"r1","text":"%r = add %x, 0\n=>\n%r = %x"}
//! {"op":"batch","id":"b1","text":"<multi-transform file text>"}
//! {"op":"stats","id":"s1"}
//! {"op":"shutdown","id":"q1"}
//! ```
//!
//! # Responses
//!
//! A `verify` request gets exactly one verdict line; a `batch` request
//! gets one verdict line per transform (`index` gives its position in the
//! submitted text) followed by a `done` summary line:
//!
//! ```text
//! {"id":"r1","index":0,"name":"opt0","hash":"<16 hex>","verdict":"valid",
//!  "cached":true,"coalesced":false,"reason":"...","wall_us":42,"cert":"",
//!  "rid":"r1","canon_us":3,"lookup_us":1,"queue_us":0,"verify_us":0}
//! {"id":"b1","done":true,"count":224,"hits":224,"misses":0}
//! {"id":"s1","stats":true,"proto":2,"hits":10,"misses":2,"joins":1,"errors":0,
//!  "busy":0,"shed":0,"idle_closed":0,"inflight":0,"stored":12,
//!  "connections":1,"uptime_ms":6000,"telemetry":{"v":1,"window_ms":60000,
//!  "hit_count":10,"hit_p50_us":31,...}}
//! {"id":"r9","error":"parse error: ..."}
//! {"id":"r2","busy":true,"retry_after_ms":250}
//! ```
//!
//! The protocol is versioned by the `proto` field of the `stats`
//! response ([`PROTO_VERSION`]). Version 2 added `proto` itself, the
//! nested `telemetry` block, and the `rid`/`*_us` timing fields on
//! verdict lines. Every addition is ignorable: a v1 client skips the
//! unknown keys, and a v1-shaped request still gets a full answer.
//!
//! `cached` is true when the verdict came from the store; `coalesced` is
//! true when the request joined another client's in-flight verification
//! of the same canonical transform. Both false means this request paid
//! for the verification itself.
//!
//! A `busy` line is the admission-control refusal: the daemon is at its
//! connection cap or verification queue depth and did **not** take the
//! work. `retry_after_ms` is a backoff hint; a well-behaved client waits
//! at least that long (with jitter) before resubmitting. Overload never
//! silently drops a request — every refusal is answered.

use alive_trace::sealed::json_escape;
use std::collections::HashMap;

/// A parsed client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Verify one transform (the `text` must parse to exactly one).
    Verify {
        /// Client-chosen correlation id, echoed on every response line.
        id: String,
        /// Alive DSL text of the transform.
        text: String,
    },
    /// Verify every transform in a multi-transform text.
    Batch {
        /// Client-chosen correlation id.
        id: String,
        /// Alive DSL text (any number of transforms).
        text: String,
    },
    /// Report server counters.
    Stats {
        /// Client-chosen correlation id.
        id: String,
    },
    /// Acknowledge and stop the server.
    Shutdown {
        /// Client-chosen correlation id.
        id: String,
    },
}

impl Request {
    /// Parses one request line. Unknown keys are ignored (forward
    /// compatibility); a missing or unknown `op` is an error.
    pub fn parse(line: &str) -> Result<Request, String> {
        let fields = parse_flat_object(line)?;
        let get = |k: &str| -> Option<&str> {
            fields.get(k).and_then(|v| match v {
                JsonValue::Str(s) => Some(s.as_str()),
                _ => None,
            })
        };
        let id = get("id").unwrap_or("").to_string();
        let text = || -> Result<String, String> {
            get("text")
                .map(str::to_string)
                .ok_or_else(|| "missing \"text\" field".to_string())
        };
        match get("op") {
            Some("verify") => Ok(Request::Verify { id, text: text()? }),
            Some("batch") => Ok(Request::Batch { id, text: text()? }),
            Some("stats") => Ok(Request::Stats { id }),
            Some("shutdown") => Ok(Request::Shutdown { id }),
            Some(other) => Err(format!("unknown op {other:?}")),
            None => Err("missing \"op\" field".to_string()),
        }
    }
}

/// One verdict line (for both `verify` and `batch` items).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerdictLine {
    /// Echo of the request id.
    pub id: String,
    /// Position of the transform in the submitted text (0 for `verify`).
    pub index: usize,
    /// Transform name (from its `Name:` header, or `opt<index>`).
    pub name: String,
    /// Canonical content hash, 16 lower-case hex digits.
    pub hash: String,
    /// Verdict label: `valid`, `invalid`, `unknown`, `error`, `hung`.
    pub verdict: String,
    /// Whether the verdict came from the store.
    pub cached: bool,
    /// Whether the request joined another client's in-flight run.
    pub coalesced: bool,
    /// Verdict detail (counterexample, error message, ...).
    pub reason: String,
    /// End-to-end latency of this request in microseconds.
    pub wall_us: u64,
    /// Certificate reference (a path), empty when none.
    pub cert: String,
    /// Server-side request id (the client's `id`, or a daemon-minted
    /// `rq-<n>` when the client sent none; batch items get
    /// `<id>#<index>`) — the key that finds this request in a `--trace`
    /// file via `alive stats --request`.
    pub rid: String,
    /// Canonicalization + hashing time, microseconds.
    pub canon_us: u64,
    /// Verdict-store lookup time, microseconds.
    pub lookup_us: u64,
    /// Wait before the verification started (leader) or the joined
    /// verdict arrived (follower), microseconds.
    pub queue_us: u64,
    /// Verification time paid by this request (0 on hits and joins),
    /// microseconds.
    pub verify_us: u64,
}

impl VerdictLine {
    /// Serializes the verdict as one response line (no newline). The
    /// proto-1 fields keep their fixed order; the proto-2 timing block
    /// is appended after them (old clients ignore unknown keys).
    pub fn render(&self) -> String {
        format!(
            "{{\"id\":\"{}\",\"index\":{},\"name\":\"{}\",\"hash\":\"{}\",\
             \"verdict\":\"{}\",\"cached\":{},\"coalesced\":{},\"reason\":\"{}\",\
             \"wall_us\":{},\"cert\":\"{}\",\"rid\":\"{}\",\"canon_us\":{},\
             \"lookup_us\":{},\"queue_us\":{},\"verify_us\":{}}}",
            json_escape(&self.id),
            self.index,
            json_escape(&self.name),
            self.hash,
            self.verdict,
            self.cached,
            self.coalesced,
            json_escape(&self.reason),
            self.wall_us,
            json_escape(&self.cert),
            json_escape(&self.rid),
            self.canon_us,
            self.lookup_us,
            self.queue_us,
            self.verify_us,
        )
    }
}

/// Serializes a batch-completion summary line.
pub fn render_done(id: &str, count: usize, hits: usize, misses: usize) -> String {
    format!(
        "{{\"id\":\"{}\",\"done\":true,\"count\":{count},\"hits\":{hits},\"misses\":{misses}}}",
        json_escape(id),
    )
}

/// The wire-protocol version the daemon speaks. Version 2 added the
/// `proto` field itself, the `telemetry` stats block, and the per-request
/// `rid`/timing fields on verdict lines — all additive, so a v1 client
/// keeps working (unknown fields are ignored on both sides).
pub const PROTO_VERSION: u64 = 2;

/// One `stats` response line: every server counter an operator can see
/// without attaching a tracer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsLine {
    /// Echo of the request id.
    pub id: String,
    /// Wire-protocol version ([`PROTO_VERSION`]); 0 when the response
    /// predates versioning (a v1 daemon).
    pub proto: u64,
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
    pub inflight: u64,
    /// Distinct verdicts in the store.
    pub stored: u64,
    /// Socket connections open right now.
    pub connections: u64,
    /// Milliseconds since the server opened its store.
    pub uptime_ms: u64,
    /// The windowed latency telemetry block (proto ≥ 2); `None` from a
    /// v1 daemon.
    pub telemetry: Option<TelemetryBlock>,
}

impl StatsLine {
    /// Serializes the stats response (no newline).
    pub fn render(&self) -> String {
        let mut out = format!(
            "{{\"id\":\"{}\",\"stats\":true,\"proto\":{},\"hits\":{},\"misses\":{},\
             \"joins\":{},\"errors\":{},\"busy\":{},\"shed\":{},\"idle_closed\":{},\
             \"inflight\":{},\"stored\":{},\"connections\":{},\"uptime_ms\":{}",
            json_escape(&self.id),
            self.proto,
            self.hits,
            self.misses,
            self.joins,
            self.errors,
            self.busy,
            self.shed,
            self.idle_closed,
            self.inflight,
            self.stored,
            self.connections,
            self.uptime_ms,
        );
        if let Some(t) = &self.telemetry {
            out.push_str(",\"telemetry\":");
            out.push_str(&t.render());
        }
        out.push('}');
        out
    }
}

/// Latency summary for one telemetry series, as carried on the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatSummary {
    /// Lifetime sample count.
    pub count: u64,
    /// Lifetime p50 upper bound, microseconds.
    pub p50_us: u64,
    /// Lifetime p90 upper bound, microseconds.
    pub p90_us: u64,
    /// Lifetime p99 upper bound, microseconds.
    pub p99_us: u64,
    /// Lifetime maximum, microseconds.
    pub max_us: u64,
    /// Samples inside the sliding window.
    pub window: u64,
    /// Window rate in milli-events per second.
    pub rate_x1000: u64,
}

/// The versioned `telemetry` block of a proto-2 `stats` response: one
/// nested object of integer fields (`<series>_<stat>`), so a flat-JSON
/// client one level smarter than proto 1 can read it, and a proto-1
/// client ignores the whole key.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetryBlock {
    /// Telemetry block schema version (1).
    pub v: u64,
    /// Sliding-window span shared by every series, milliseconds.
    pub window_ms: u64,
    /// Store-hit request latency.
    pub hit: LatSummary,
    /// Cache-miss request latency.
    pub miss: LatSummary,
    /// Coalesced-join request latency.
    pub join: LatSummary,
    /// Queue-wait before verification/join delivery.
    pub queue_wait: LatSummary,
    /// Canonicalization + hashing time.
    pub canon: LatSummary,
    /// Verdict-store append time.
    pub append: LatSummary,
}

/// The six series of a telemetry block with their wire-key prefixes, in
/// render order.
const TELEMETRY_SERIES: [&str; 6] = ["hit", "miss", "join", "queue_wait", "canon", "append"];

impl TelemetryBlock {
    fn series(&self, name: &str) -> &LatSummary {
        match name {
            "hit" => &self.hit,
            "miss" => &self.miss,
            "join" => &self.join,
            "queue_wait" => &self.queue_wait,
            "canon" => &self.canon,
            "append" => &self.append,
            _ => unreachable!("unknown telemetry series {name}"),
        }
    }

    fn series_mut(&mut self, name: &str) -> &mut LatSummary {
        match name {
            "hit" => &mut self.hit,
            "miss" => &mut self.miss,
            "join" => &mut self.join,
            "queue_wait" => &mut self.queue_wait,
            "canon" => &mut self.canon,
            "append" => &mut self.append,
            _ => unreachable!("unknown telemetry series {name}"),
        }
    }

    /// Serializes the block as one nested JSON object (no newline).
    pub fn render(&self) -> String {
        let mut out = format!("{{\"v\":{},\"window_ms\":{}", self.v, self.window_ms);
        for name in TELEMETRY_SERIES {
            let s = self.series(name);
            out.push_str(&format!(
                ",\"{name}_count\":{},\"{name}_p50_us\":{},\"{name}_p90_us\":{},\
                 \"{name}_p99_us\":{},\"{name}_max_us\":{},\"{name}_window\":{},\
                 \"{name}_rate_x1000\":{}",
                s.count, s.p50_us, s.p90_us, s.p99_us, s.max_us, s.window, s.rate_x1000,
            ));
        }
        out.push('}');
        out
    }

    /// Reconstructs a block from the parsed nested object. Missing
    /// fields read as 0 (forward compatibility within the block).
    pub fn from_fields(fields: &HashMap<String, JsonValue>) -> TelemetryBlock {
        let num = |k: &str| -> u64 {
            match fields.get(k) {
                Some(JsonValue::Num(n)) => u64::try_from(*n).unwrap_or(0),
                _ => 0,
            }
        };
        let mut block = TelemetryBlock {
            v: num("v"),
            window_ms: num("window_ms"),
            ..TelemetryBlock::default()
        };
        for name in TELEMETRY_SERIES {
            *block.series_mut(name) = LatSummary {
                count: num(&format!("{name}_count")),
                p50_us: num(&format!("{name}_p50_us")),
                p90_us: num(&format!("{name}_p90_us")),
                p99_us: num(&format!("{name}_p99_us")),
                max_us: num(&format!("{name}_max_us")),
                window: num(&format!("{name}_window")),
                rate_x1000: num(&format!("{name}_rate_x1000")),
            };
        }
        block
    }
}

impl From<&alive_trace::SeriesSnapshot> for LatSummary {
    fn from(s: &alive_trace::SeriesSnapshot) -> LatSummary {
        LatSummary {
            count: s.count,
            p50_us: s.p50_us,
            p90_us: s.p90_us,
            p99_us: s.p99_us,
            max_us: s.max_us,
            window: s.window_count,
            rate_x1000: s.rate_x1000,
        }
    }
}

impl From<&alive_trace::TelemetrySnapshot> for TelemetryBlock {
    fn from(t: &alive_trace::TelemetrySnapshot) -> TelemetryBlock {
        TelemetryBlock {
            v: 1,
            window_ms: t.window_ms,
            hit: (&t.hit).into(),
            miss: (&t.miss).into(),
            join: (&t.join).into(),
            queue_wait: (&t.queue_wait).into(),
            canon: (&t.canon).into(),
            append: (&t.append).into(),
        }
    }
}

/// Serializes an admission-control refusal: the server did not take the
/// request; retry after the hinted delay.
pub fn render_busy(id: &str, retry_after_ms: u64) -> String {
    format!(
        "{{\"id\":\"{}\",\"busy\":true,\"retry_after_ms\":{retry_after_ms}}}",
        json_escape(id),
    )
}

/// Serializes an error response line.
pub fn render_error(id: &str, message: &str) -> String {
    format!(
        "{{\"id\":\"{}\",\"error\":\"{}\"}}",
        json_escape(id),
        json_escape(message),
    )
}

/// Serializes the shutdown acknowledgement.
pub fn render_shutdown(id: &str) -> String {
    format!("{{\"id\":\"{}\",\"shutdown\":true}}", json_escape(id))
}

/// A parsed server response line — the client half of the protocol,
/// used by the retrying [`crate::client`] and by test harnesses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// One verdict (a `verify` answer or a `batch` item).
    Verdict(VerdictLine),
    /// Batch completion summary.
    Done {
        /// Echo of the request id.
        id: String,
        /// Transforms answered.
        count: u64,
        /// How many came from the store.
        hits: u64,
        /// How many ran a verification.
        misses: u64,
    },
    /// Admission refusal: resubmit after the hint.
    Busy {
        /// Echo of the request id (may be empty when shed at accept).
        id: String,
        /// Backoff hint in milliseconds.
        retry_after_ms: u64,
    },
    /// Counter snapshot (boxed: the telemetry block makes it much
    /// larger than the other variants).
    Stats(Box<StatsLine>),
    /// Request-level failure (parse error, bad transform, ...).
    Error {
        /// Echo of the request id.
        id: String,
        /// Human-readable message.
        message: String,
    },
    /// Shutdown acknowledgement.
    Shutdown {
        /// Echo of the request id.
        id: String,
    },
}

/// Parses one server response line. The discriminating key decides the
/// variant (`busy`, `done`, `stats`, `error`, `shutdown`, else a verdict
/// line with its `verdict` field).
pub fn parse_response(line: &str) -> Result<Response, String> {
    let fields = parse_flat_object(line)?;
    let str_of = |k: &str| -> String {
        match fields.get(k) {
            Some(JsonValue::Str(s)) => s.clone(),
            _ => String::new(),
        }
    };
    let num_of = |k: &str| -> u64 {
        match fields.get(k) {
            Some(JsonValue::Num(n)) => u64::try_from(*n).unwrap_or(0),
            _ => 0,
        }
    };
    let bool_of = |k: &str| -> bool { matches!(fields.get(k), Some(JsonValue::Bool(true))) };
    let id = str_of("id");
    if bool_of("busy") {
        return Ok(Response::Busy {
            id,
            retry_after_ms: num_of("retry_after_ms"),
        });
    }
    if bool_of("done") {
        return Ok(Response::Done {
            id,
            count: num_of("count"),
            hits: num_of("hits"),
            misses: num_of("misses"),
        });
    }
    if bool_of("stats") {
        let telemetry = match fields.get("telemetry") {
            Some(JsonValue::Obj(t)) => Some(TelemetryBlock::from_fields(t)),
            _ => None,
        };
        return Ok(Response::Stats(Box::new(StatsLine {
            id,
            proto: num_of("proto"),
            hits: num_of("hits"),
            misses: num_of("misses"),
            joins: num_of("joins"),
            errors: num_of("errors"),
            busy: num_of("busy"),
            shed: num_of("shed"),
            idle_closed: num_of("idle_closed"),
            inflight: num_of("inflight"),
            stored: num_of("stored"),
            connections: num_of("connections"),
            uptime_ms: num_of("uptime_ms"),
            telemetry,
        })));
    }
    if let Some(JsonValue::Str(message)) = fields.get("error") {
        return Ok(Response::Error {
            id,
            message: message.clone(),
        });
    }
    if bool_of("shutdown") {
        return Ok(Response::Shutdown { id });
    }
    if let Some(JsonValue::Str(verdict)) = fields.get("verdict") {
        return Ok(Response::Verdict(VerdictLine {
            id,
            index: num_of("index") as usize,
            name: str_of("name"),
            hash: str_of("hash"),
            verdict: verdict.clone(),
            cached: bool_of("cached"),
            coalesced: bool_of("coalesced"),
            reason: str_of("reason"),
            wall_us: num_of("wall_us"),
            cert: str_of("cert"),
            rid: str_of("rid"),
            canon_us: num_of("canon_us"),
            lookup_us: num_of("lookup_us"),
            queue_us: num_of("queue_us"),
            verify_us: num_of("verify_us"),
        }));
    }
    Err(format!("unrecognized response line: {line:?}"))
}

/// A field value in a protocol object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonValue {
    /// A JSON string (escapes decoded).
    Str(String),
    /// An integer (the protocol uses no fractions).
    Num(i64),
    /// `true` / `false`.
    Bool(bool),
    /// A nested object of scalar fields — used only by the proto-2
    /// `telemetry` stats block; requests stay flat by construction.
    Obj(HashMap<String, JsonValue>),
}

/// Parses a protocol object of scalar fields, any key order, unknown
/// keys kept. One level of object nesting is allowed (the proto-2
/// `telemetry` stats block); arrays and deeper nesting are rejected —
/// nothing on the wire uses them, and refusing them keeps this parser
/// small and obviously correct.
pub fn parse_flat_object(line: &str) -> Result<HashMap<String, JsonValue>, String> {
    let mut p = Parser {
        rest: line.trim_end_matches(['\r', '\n']),
    };
    p.skip_ws();
    let out = p.object(0)?;
    p.skip_ws();
    p.finish(out)
}

struct Parser<'a> {
    rest: &'a str,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start_matches([' ', '\t']);
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.try_take(c) {
            Ok(())
        } else {
            Err(format!(
                "expected {c:?} at {:?}",
                &self.rest[..self.rest.len().min(20)]
            ))
        }
    }

    fn try_take(&mut self, c: char) -> bool {
        if let Some(r) = self.rest.strip_prefix(c) {
            self.rest = r;
            true
        } else {
            false
        }
    }

    fn finish<T>(&self, out: T) -> Result<T, String> {
        if self.rest.is_empty() {
            Ok(out)
        } else {
            Err(format!("trailing input: {:?}", self.rest))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        let mut chars = self.rest.char_indices();
        loop {
            let (i, c) = chars
                .next()
                .ok_or_else(|| "unterminated string".to_string())?;
            match c {
                '"' => {
                    self.rest = &self.rest[i + 1..];
                    return Ok(out);
                }
                '\\' => {
                    let (_, esc) = chars.next().ok_or_else(|| "dangling escape".to_string())?;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let (_, h) = chars
                                    .next()
                                    .ok_or_else(|| "truncated \\u escape".to_string())?;
                                code = code * 16
                                    + h.to_digit(16).ok_or_else(|| "bad \\u escape".to_string())?;
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "bad \\u code point".to_string())?,
                            );
                        }
                        other => return Err(format!("unknown escape \\{other}")),
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<HashMap<String, JsonValue>, String> {
        self.expect('{')?;
        let mut out = HashMap::new();
        self.skip_ws();
        if self.try_take('}') {
            return Ok(out);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            out.insert(key, value);
            self.skip_ws();
            if self.try_take(',') {
                continue;
            }
            self.expect('}')?;
            return Ok(out);
        }
    }

    fn value(&mut self, depth: u32) -> Result<JsonValue, String> {
        if self.rest.starts_with('{') {
            if depth >= 1 {
                return Err("object nested deeper than one level".to_string());
            }
            return Ok(JsonValue::Obj(self.object(depth + 1)?));
        }
        if self.rest.starts_with('"') {
            return Ok(JsonValue::Str(self.string()?));
        }
        if let Some(r) = self.rest.strip_prefix("true") {
            self.rest = r;
            return Ok(JsonValue::Bool(true));
        }
        if let Some(r) = self.rest.strip_prefix("false") {
            self.rest = r;
            return Ok(JsonValue::Bool(false));
        }
        let end = self
            .rest
            .find(|c: char| !c.is_ascii_digit() && c != '-')
            .unwrap_or(self.rest.len());
        let (digits, rest) = self.rest.split_at(end);
        let n: i64 = digits.parse().map_err(|_| {
            format!(
                "expected a value at {:?}",
                &self.rest[..self.rest.len().min(20)]
            )
        })?;
        self.rest = rest;
        Ok(JsonValue::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_in_any_field_order() {
        let a = Request::parse(r#"{"op":"verify","id":"r1","text":"%r = add %x, 0\n=>\n%r = %x"}"#)
            .unwrap();
        let b = Request::parse(r#"{"text":"%r = add %x, 0\n=>\n%r = %x","id":"r1","op":"verify"}"#)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a,
            Request::Verify {
                id: "r1".to_string(),
                text: "%r = add %x, 0\n=>\n%r = %x".to_string(),
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"stats"}"#).unwrap(),
            Request::Stats { id: String::new() }
        );
        assert_eq!(
            Request::parse(r#"{"op":"shutdown","id":"q"}"#).unwrap(),
            Request::Shutdown {
                id: "q".to_string()
            }
        );
    }

    #[test]
    fn unknown_fields_are_ignored_unknown_ops_are_not() {
        assert!(Request::parse(r#"{"op":"stats","future":"stuff","n":3,"b":true}"#).is_ok());
        assert!(Request::parse(r#"{"op":"reboot"}"#).is_err());
        assert!(Request::parse(r#"{"id":"x"}"#).is_err());
        assert!(Request::parse(r#"{"op":"verify","id":"x"}"#).is_err());
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"op":"verify","text":{"nested":1}}"#).is_err());
    }

    #[test]
    fn responses_round_trip_through_parse_response() {
        let verdict = VerdictLine {
            id: "r1".to_string(),
            index: 2,
            name: "opt2".to_string(),
            hash: "00ff00ff00ff00ff".to_string(),
            verdict: "valid".to_string(),
            cached: true,
            reason: String::new(),
            wall_us: 7,
            rid: "r1".to_string(),
            canon_us: 3,
            lookup_us: 1,
            queue_us: 2,
            verify_us: 0,
            ..VerdictLine::default()
        };
        assert_eq!(
            parse_response(&verdict.render()).unwrap(),
            Response::Verdict(verdict)
        );
        assert_eq!(
            parse_response(&render_busy("r2", 250)).unwrap(),
            Response::Busy {
                id: "r2".to_string(),
                retry_after_ms: 250
            }
        );
        assert_eq!(
            parse_response(&render_done("b1", 3, 2, 1)).unwrap(),
            Response::Done {
                id: "b1".to_string(),
                count: 3,
                hits: 2,
                misses: 1
            }
        );
        let stats = StatsLine {
            id: "s1".to_string(),
            proto: PROTO_VERSION,
            hits: 10,
            busy: 4, // numeric counter, must not read as a busy refusal
            uptime_ms: 12345,
            telemetry: Some(TelemetryBlock {
                v: 1,
                window_ms: 60_000,
                hit: LatSummary {
                    count: 10,
                    p50_us: 31,
                    p90_us: 63,
                    p99_us: 127,
                    max_us: 90,
                    window: 4,
                    rate_x1000: 66,
                },
                ..TelemetryBlock::default()
            }),
            ..StatsLine::default()
        };
        assert_eq!(
            parse_response(&stats.render()).unwrap(),
            Response::Stats(Box::new(stats))
        );
        assert_eq!(
            parse_response(&render_error("x", "nope")).unwrap(),
            Response::Error {
                id: "x".to_string(),
                message: "nope".to_string()
            }
        );
        assert_eq!(
            parse_response(&render_shutdown("q")).unwrap(),
            Response::Shutdown {
                id: "q".to_string()
            }
        );
        assert!(parse_response(r#"{"id":"x"}"#).is_err());
    }

    #[test]
    fn verdict_line_round_trips_through_the_flat_parser() {
        let line = VerdictLine {
            id: "r\"1\"".to_string(),
            index: 3,
            name: "opt3".to_string(),
            hash: "00ff00ff00ff00ff".to_string(),
            verdict: "invalid".to_string(),
            cached: true,
            reason: "counterexample:\n%x i8 = 1".to_string(),
            wall_us: 42,
            rid: "rq-7".to_string(),
            ..VerdictLine::default()
        };
        let fields = parse_flat_object(&line.render()).unwrap();
        assert_eq!(fields["id"], JsonValue::Str("r\"1\"".to_string()));
        assert_eq!(fields["index"], JsonValue::Num(3));
        assert_eq!(fields["cached"], JsonValue::Bool(true));
        assert_eq!(fields["rid"], JsonValue::Str("rq-7".to_string()));
        assert_eq!(
            fields["reason"],
            JsonValue::Str("counterexample:\n%x i8 = 1".to_string())
        );
    }

    #[test]
    fn proto_v1_responses_still_parse() {
        // A literal v1 daemon stats line: no proto, no telemetry.
        let v1 = r#"{"id":"s1","stats":true,"hits":10,"misses":2,"joins":1,"errors":0,"busy":0,"shed":0,"idle_closed":0,"inflight":0,"stored":12,"connections":1,"uptime_ms":6000}"#;
        let Response::Stats(s) = parse_response(v1).unwrap() else {
            panic!("not a stats line");
        };
        assert_eq!(s.proto, 0);
        assert_eq!(s.telemetry, None);
        assert_eq!(s.hits, 10);
        // A literal v1 verdict line: no rid, no timing fields.
        let v1 = r#"{"id":"r1","index":0,"name":"opt0","hash":"00ff00ff00ff00ff","verdict":"valid","cached":true,"coalesced":false,"reason":"","wall_us":42,"cert":""}"#;
        let Response::Verdict(v) = parse_response(v1).unwrap() else {
            panic!("not a verdict line");
        };
        assert_eq!(v.rid, "");
        assert_eq!(v.verify_us, 0);
        assert_eq!(v.wall_us, 42);
    }

    #[test]
    fn telemetry_block_renders_nested_and_round_trips() {
        let stats = StatsLine {
            id: "s".to_string(),
            proto: PROTO_VERSION,
            telemetry: Some(TelemetryBlock {
                v: 1,
                window_ms: 6_000,
                miss: LatSummary {
                    count: 3,
                    p50_us: 8191,
                    p90_us: 16_383,
                    p99_us: 16_383,
                    max_us: 12_000,
                    window: 3,
                    rate_x1000: 500,
                },
                ..TelemetryBlock::default()
            }),
            ..StatsLine::default()
        };
        let line = stats.render();
        assert!(line.contains("\"telemetry\":{\"v\":1"));
        assert!(line.contains("\"miss_p99_us\":16383"));
        assert_eq!(
            parse_response(&line).unwrap(),
            Response::Stats(Box::new(stats))
        );
        // Nesting deeper than the telemetry block is still rejected.
        assert!(parse_flat_object(r#"{"a":{"b":{"c":1}}}"#).is_err());
        // Unknown keys inside the block are ignored, not fatal.
        let future = r#"{"id":"s","stats":true,"proto":3,"telemetry":{"v":2,"new_field":9}}"#;
        let Response::Stats(s) = parse_response(future).unwrap() else {
            panic!("not a stats line");
        };
        assert_eq!(s.proto, 3);
        assert_eq!(s.telemetry.unwrap().v, 2);
    }
}
