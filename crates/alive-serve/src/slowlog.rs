//! The slow-query log: a CRC-sealed JSONL record per expensive miss.
//!
//! When the daemon runs with `--slow-ms <t>`, every cache miss whose
//! verification takes at least `t` milliseconds appends one sealed line
//! to `<store>.slowlog`: the canonical hash, per-phase times, verdict,
//! and the solver budget it burned. The log answers the operator
//! question the telemetry percentiles cannot — *which* transforms are
//! the slow tail — and `alive slowlog` ranks them.
//!
//! The file is a [sealed](alive_trace::sealed) log written through one
//! [`SealedLog`], like the verdict store, under the same recovery
//! policy: a torn tail from a crash is dropped on read and truncated when
//! the daemon reopens the log, and a bad line with lines after it is
//! refused. Rotation caps the size — when the file exceeds the cap it is
//! renamed to `<path>.1` (replacing the previous rotation) and a fresh
//! log starts. At most two files, bounded disk, no daemon involvement.

use crate::proto::{parse_flat_object, JsonValue};
use alive_trace::sealed::{self, first_line, json_escape, seal, unseal};
use alive_verifier::durable::{self, SealedLog};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// Schema tag on the header line of every slowlog file.
pub const SLOWLOG_SCHEMA: &str = "alive-slowlog/v1";

/// Default rotation cap in bytes (1 MiB ≈ several thousand records).
pub const DEFAULT_MAX_BYTES: u64 = 1 << 20;

/// One slow-miss record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlowRecord {
    /// Request id that paid for the verification.
    pub rid: String,
    /// Transform name (client-visible, not canonical).
    pub name: String,
    /// Canonical content hash, 16 lower-case hex digits.
    pub hash: String,
    /// Verdict label the verification produced.
    pub verdict: String,
    /// End-to-end verification wall time, milliseconds.
    pub wall_ms: u64,
    /// The `--slow-ms` threshold that admitted this record.
    pub threshold_ms: u64,
    /// Type inference + typing enumeration time, microseconds.
    pub typeck_us: u64,
    /// VC generation + SMT term construction time, microseconds.
    pub encode_us: u64,
    /// SAT solving time, microseconds.
    pub solve_us: u64,
    /// Counterexample re-validation time, microseconds.
    pub check_us: u64,
    /// SAT conflicts spent (the budget consumed).
    pub conflicts: u64,
    /// Driver retries the transform needed.
    pub retries: u64,
}

impl SlowRecord {
    fn render_body(&self) -> String {
        format!(
            "{{\"rid\":\"{}\",\"name\":\"{}\",\"hash\":\"{}\",\"verdict\":\"{}\",\
             \"wall_ms\":{},\"threshold_ms\":{},\"typeck_us\":{},\"encode_us\":{},\
             \"solve_us\":{},\"check_us\":{},\"conflicts\":{},\"retries\":{}",
            json_escape(&self.rid),
            json_escape(&self.name),
            self.hash,
            self.verdict,
            self.wall_ms,
            self.threshold_ms,
            self.typeck_us,
            self.encode_us,
            self.solve_us,
            self.check_us,
            self.conflicts,
            self.retries,
        )
    }

    fn from_fields(fields: &HashMap<String, JsonValue>) -> SlowRecord {
        let s = |k: &str| match fields.get(k) {
            Some(JsonValue::Str(s)) => s.clone(),
            _ => String::new(),
        };
        let n = |k: &str| match fields.get(k) {
            Some(JsonValue::Num(n)) => u64::try_from(*n).unwrap_or(0),
            _ => 0,
        };
        SlowRecord {
            rid: s("rid"),
            name: s("name"),
            hash: s("hash"),
            verdict: s("verdict"),
            wall_ms: n("wall_ms"),
            threshold_ms: n("threshold_ms"),
            typeck_us: n("typeck_us"),
            encode_us: n("encode_us"),
            solve_us: n("solve_us"),
            check_us: n("check_us"),
            conflicts: n("conflicts"),
            retries: n("retries"),
        }
    }
}

/// The header line's body, before its seal.
fn header_body() -> String {
    format!("{{\"slowlog\":\"{SLOWLOG_SCHEMA}\"")
}

fn is_header(line: &str) -> bool {
    unseal(line).is_some_and(|body| body.contains(SLOWLOG_SCHEMA))
}

fn parse_record(line: &str) -> Option<SlowRecord> {
    let body = unseal(line)?;
    let fields = parse_flat_object(&format!("{body}}}")).ok()?;
    Some(SlowRecord::from_fields(&fields))
}

/// The appending side: owned by the daemon, one instance per store.
///
/// Writes go through one [`SealedLog`]: each record is appended and
/// fsync'd, sync failures are propagated (poisoning the handle until
/// rotation/reopen), and rotation's rename persists the directory entry.
#[derive(Debug)]
pub struct SlowLog {
    path: PathBuf,
    log: SealedLog,
    max_bytes: u64,
}

impl SlowLog {
    /// Opens (or creates) the slowlog at `path`, truncating a torn tail
    /// so the next record is not appended onto it. A file that is new,
    /// empty, or has no readable header (one torn by a crash) is started
    /// fresh: nothing in it could be read back. `max_bytes` caps the file
    /// before rotation (0 means [`DEFAULT_MAX_BYTES`]).
    ///
    /// # Errors
    ///
    /// Refuses a file with mid-file damage.
    pub fn open(path: &Path, max_bytes: u64) -> io::Result<SlowLog> {
        let text = match sealed::read(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            text => text?,
        };
        let log = if is_header(first_line(&text)) {
            let replay = sealed::replay(&text, true, parse_record)?;
            SealedLog::open_append(path, replay.good_bytes)?
        } else {
            SealedLog::create(path, &header_body())?
        };
        Ok(SlowLog {
            path: path.to_path_buf(),
            log,
            max_bytes: if max_bytes == 0 {
                DEFAULT_MAX_BYTES
            } else {
                max_bytes
            },
        })
    }

    /// Appends one sealed record, rotating first if the file is at its
    /// cap, and fsyncs before returning. Returns the record's line length
    /// in bytes.
    ///
    /// # Errors
    ///
    /// Propagates append/sync failures; a failed sync poisons the handle
    /// (fsyncgate), and later appends refuse until the log rotates or the
    /// daemon reopens it.
    pub fn append(&mut self, rec: &SlowRecord) -> io::Result<u64> {
        if self.log.bytes() >= self.max_bytes {
            self.rotate()?;
        }
        self.log.append(&rec.render_body())
    }

    /// Renames the current file to `<path>.1` (replacing any previous
    /// rotation) and starts a fresh log with a new header. The rename and
    /// the fresh file's name are both made durable via the parent
    /// directory fsync inside the seam.
    fn rotate(&mut self) -> io::Result<()> {
        durable::rename(&self.path, &durable::suffixed(&self.path, ".1"))?;
        self.log = SealedLog::create(&self.path, &header_body())?;
        Ok(())
    }

    /// Current file length in bytes (header included).
    pub fn len(&self) -> u64 {
        self.log.bytes()
    }

    /// Whether the log holds no records yet (header only).
    pub fn is_empty(&self) -> bool {
        // The header is always present, so "empty" means header-sized.
        self.len() <= seal(&header_body()).len() as u64 + 1
    }
}

/// The reader side: parses a slowlog file under the sealed-log policy,
/// returning the intact records and the number of torn-tail lines dropped
/// (0 or 1). A missing/wrong header is a hard error — without the schema
/// line the file is not a slowlog — and so is mid-file damage.
pub fn read_slowlog(path: &Path) -> Result<(Vec<SlowRecord>, usize), String> {
    let text = sealed::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if !is_header(first_line(&text)) {
        return Err(format!(
            "{}: not a {SLOWLOG_SCHEMA} file (bad or missing header)",
            path.display()
        ));
    }
    let replay = sealed::replay(&text, true, parse_record)
        .map_err(|d| format!("{}: {d}", path.display()))?;
    Ok((replay.records, replay.discarded))
}

/// One ranked offender: every record of one canonical hash, collapsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Offender {
    /// Canonical content hash.
    pub hash: String,
    /// A representative transform name (from the slowest record).
    pub name: String,
    /// Verdict of the slowest record.
    pub verdict: String,
    /// How many slow records this hash produced.
    pub count: u64,
    /// Slowest single verification, milliseconds.
    pub max_ms: u64,
    /// Total wall time across all records, milliseconds.
    pub total_ms: u64,
    /// Total conflicts burned across all records.
    pub conflicts: u64,
}

/// Collapses records per canonical hash and ranks them, worst single
/// verification first (ties broken by total time, then hash).
pub fn rank(records: &[SlowRecord]) -> Vec<Offender> {
    let mut by_hash: HashMap<&str, Offender> = HashMap::new();
    for r in records {
        let o = by_hash.entry(&r.hash).or_insert_with(|| Offender {
            hash: r.hash.clone(),
            name: r.name.clone(),
            verdict: r.verdict.clone(),
            count: 0,
            max_ms: 0,
            total_ms: 0,
            conflicts: 0,
        });
        o.count += 1;
        o.total_ms += r.wall_ms;
        o.conflicts += r.conflicts;
        if r.wall_ms > o.max_ms {
            o.max_ms = r.wall_ms;
            o.name = r.name.clone();
            o.verdict = r.verdict.clone();
        }
    }
    let mut out: Vec<Offender> = by_hash.into_values().collect();
    out.sort_by(|a, b| {
        b.max_ms
            .cmp(&a.max_ms)
            .then(b.total_ms.cmp(&a.total_ms))
            .then(a.hash.cmp(&b.hash))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("alive-slowlog-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let mut rotated = path.as_os_str().to_owned();
        rotated.push(".1");
        let _ = std::fs::remove_file(PathBuf::from(rotated));
        path
    }

    fn rec(hash: &str, wall_ms: u64) -> SlowRecord {
        SlowRecord {
            rid: "rq-1".to_string(),
            name: format!("t-{hash}"),
            hash: hash.to_string(),
            verdict: "valid".to_string(),
            wall_ms,
            threshold_ms: 10,
            typeck_us: 5,
            encode_us: 50,
            solve_us: wall_ms * 900,
            check_us: 1,
            conflicts: wall_ms * 3,
            retries: 0,
        }
    }

    #[test]
    fn records_round_trip_through_the_file() {
        let path = temp("roundtrip.slowlog");
        let mut log = SlowLog::open(&path, 0).unwrap();
        assert!(log.is_empty());
        log.append(&rec("00000000000000aa", 120)).unwrap();
        log.append(&rec("00000000000000bb", 40)).unwrap();
        assert!(!log.is_empty());
        let (records, dropped) = read_slowlog(&path).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], rec("00000000000000aa", 120));
        assert_eq!(records[1].solve_us, 36_000);
    }

    #[test]
    fn reopen_appends_without_a_second_header() {
        let path = temp("reopen.slowlog");
        SlowLog::open(&path, 0)
            .unwrap()
            .append(&rec("00000000000000aa", 20))
            .unwrap();
        SlowLog::open(&path, 0)
            .unwrap()
            .append(&rec("00000000000000bb", 30))
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches(SLOWLOG_SCHEMA).count(), 1);
        let (records, _) = read_slowlog(&path).unwrap();
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn torn_tail_is_skipped_not_fatal() {
        let path = temp("torn.slowlog");
        let mut log = SlowLog::open(&path, 0).unwrap();
        log.append(&rec("00000000000000aa", 20)).unwrap();
        // Simulate a crash mid-append: a truncated, unsealed line.
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"rid\":\"rq-9\",\"name\":\"half").unwrap();
        drop(f);
        let (records, dropped) = read_slowlog(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(dropped, 1);
    }

    #[test]
    fn reopen_truncates_a_torn_tail_before_appending() {
        let path = temp("reopen-torn.slowlog");
        let (a, b) = (rec("00000000000000aa", 20), rec("00000000000000bb", 30));
        SlowLog::open(&path, 0).unwrap().append(&a).unwrap();
        // A crash mid-append leaves half a line with no newline.
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"rid\":\"rq-9\",\"name\":\"half").unwrap();
        drop(f);
        SlowLog::open(&path, 0).unwrap().append(&b).unwrap();
        assert_eq!(read_slowlog(&path).unwrap(), (vec![a, b], 0));
    }

    #[test]
    fn mid_file_damage_is_refused_not_skipped() {
        let path = temp("midfile.slowlog");
        let mut log = SlowLog::open(&path, 0).unwrap();
        log.append(&rec("00000000000000aa", 20)).unwrap();
        log.append(&rec("00000000000000bb", 30)).unwrap();
        drop(log);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            text.replacen("00000000000000aa", "00000000000000ab", 1),
        )
        .unwrap();
        let err = read_slowlog(&path).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = SlowLog::open(&path, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn missing_header_is_fatal() {
        let path = temp("noheader.slowlog");
        std::fs::write(&path, "{\"rid\":\"x\"}\n").unwrap();
        assert!(read_slowlog(&path).unwrap_err().contains("header"));
    }

    #[test]
    fn rotation_caps_the_file_and_keeps_one_predecessor() {
        let path = temp("rotate.slowlog");
        // A cap small enough that a few records trip it.
        let mut log = SlowLog::open(&path, 400).unwrap();
        for i in 0..20 {
            log.append(&rec(&format!("{i:016x}"), i)).unwrap();
        }
        assert!(log.len() <= 400 + 300, "cap not enforced: {}", log.len());
        let mut rotated = path.as_os_str().to_owned();
        rotated.push(".1");
        let rotated = PathBuf::from(rotated);
        assert!(rotated.exists());
        // Both generations are intact, well-formed slowlogs.
        let (cur, d1) = read_slowlog(&path).unwrap();
        let (old, d2) = read_slowlog(&rotated).unwrap();
        assert_eq!(d1 + d2, 0);
        assert!(!cur.is_empty() || !old.is_empty());
    }

    #[test]
    fn rank_orders_by_worst_verification() {
        let records = vec![
            rec("00000000000000aa", 10),
            rec("00000000000000aa", 90),
            rec("00000000000000bb", 50),
        ];
        let ranked = rank(&records);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].hash, "00000000000000aa");
        assert_eq!(ranked[0].count, 2);
        assert_eq!(ranked[0].max_ms, 90);
        assert_eq!(ranked[0].total_ms, 100);
        assert_eq!(ranked[1].max_ms, 50);
    }
}
