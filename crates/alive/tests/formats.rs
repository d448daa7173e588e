//! Golden bytes of the three CRC-sealed JSONL artifacts: the verdict
//! store (which `--journal` also writes), the slow-query log and the
//! trace.
//!
//! Each test drives the real writer with fixed inputs, compares the file
//! it leaves byte for byte against a pinned header line and record line,
//! and reads the file back through the real reader. The strings include
//! quotes, backslashes, control characters and non-ASCII text, so the
//! JSON escaping and the CRC seal are pinned along with the field order.

use alive::serve::slowlog::{read_slowlog, SlowLog, SlowRecord};
use alive::trace::{read_trace, Event, EventKind, JsonlSink, TraceSink};
use alive::verifier::{OutcomeKind, StoreOpen, VerdictStore};
use std::path::PathBuf;

/// Text with every class of character the escaper treats specially.
const TRICKY: &str = "q\"b\\n\nt\tc\u{1}é";

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alive-formats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        if entry.file_name().to_string_lossy().starts_with(name) {
            std::fs::remove_file(entry.path()).ok();
        }
    }
    path
}

fn assert_lines(path: &PathBuf, header: &str, record: &str) {
    let text = std::fs::read_to_string(path).unwrap();
    assert_eq!(
        text,
        format!("{header}\n{record}\n"),
        "bytes of {}",
        path.display()
    );
}

const STORE_HEADER: &str = r#"{"store":"alive-store/v1","config":"00000000000000aa","epoch":3,"desc":"widths=4,","crc":"23fb17437468df47"}"#;
const STORE_RECORD: &str = r#"{"hash":"86167785342bdfab","canon":"%v1 = add %v0, C1\n=>\n%v1 = %v0","verdict":"invalid","reason":"q\"b\\n\nt\tc\u0001é","wall_ms":1412,"cert":"certs/a.cert","crc":"b21fc4140476cbe9"}"#;

#[test]
fn store_bytes_are_pinned() {
    let path = temp("store.jsonl");
    let canon = "%v1 = add %v0, C1\n=>\n%v1 = %v0";
    {
        let (mut store, how) = VerdictStore::open(&path, 0xaa, 3, Some("widths=4,")).unwrap();
        assert_eq!(how, StoreOpen::Created);
        store
            .insert(canon, OutcomeKind::Invalid, TRICKY, 1412, "certs/a.cert")
            .unwrap();
    }
    assert_lines(&path, STORE_HEADER, STORE_RECORD);

    let (store, how) = VerdictStore::open(&path, 0xaa, 3, Some("widths=4,")).unwrap();
    assert_eq!(
        how,
        StoreOpen::Loaded {
            records: 1,
            discarded: 0
        }
    );
    let rec = store.lookup(canon).unwrap();
    assert_eq!(rec.verdict, OutcomeKind::Invalid);
    assert_eq!(rec.reason, TRICKY);
    assert_eq!(rec.cert, "certs/a.cert");
}

const SLOWLOG_HEADER: &str = r#"{"slowlog":"alive-slowlog/v1","crc":"7f8500c043c1a2b4"}"#;
const SLOWLOG_RECORD: &str = r#"{"rid":"rq-7","name":"q\"b\\n\nt\tc\u0001é","hash":"00000000000000aa","verdict":"valid","wall_ms":120,"threshold_ms":10,"typeck_us":5,"encode_us":50,"solve_us":108000,"check_us":1,"conflicts":360,"retries":2,"crc":"483e9f1e9b34ff6c"}"#;

#[test]
fn slowlog_bytes_are_pinned() {
    let path = temp("slow.slowlog");
    let rec = SlowRecord {
        rid: "rq-7".to_string(),
        name: TRICKY.to_string(),
        hash: "00000000000000aa".to_string(),
        verdict: "valid".to_string(),
        wall_ms: 120,
        threshold_ms: 10,
        typeck_us: 5,
        encode_us: 50,
        solve_us: 108_000,
        check_us: 1,
        conflicts: 360,
        retries: 2,
    };
    SlowLog::open(&path, 0).unwrap().append(&rec).unwrap();
    assert_lines(&path, SLOWLOG_HEADER, SLOWLOG_RECORD);

    let (records, dropped) = read_slowlog(&path).unwrap();
    assert_eq!(dropped, 0);
    assert_eq!(records, vec![rec]);
}

const TRACE_HEADER: &str = r#"{"trace":"alive-trace/v1","crc":"a058e1f8da368a10"}"#;
/// One line per event kind, in [`KINDS`] order: each kind has its own
/// field list.
const TRACE_RECORDS: [&str; 6] = [
    r#"{"ev":"start","id":7,"parent":3,"tid":2,"us":12345,"name":"pool.task","arg":"q\"b\\n\nt\tc\u0001é","crc":"f99e4cbc2e9c1782"}"#,
    r#"{"ev":"end","id":7,"tid":2,"us":12345,"name":"pool.task","value":99,"crc":"3689ab96029d5c3f"}"#,
    r#"{"ev":"counter","tid":2,"us":12345,"name":"pool.task","arg":"q\"b\\n\nt\tc\u0001é","value":99,"crc":"4ce25d4a450821ba"}"#,
    r#"{"ev":"gauge","tid":2,"us":12345,"name":"pool.task","value":99,"crc":"9d3ba48afc4c6ab5"}"#,
    r#"{"ev":"sample","tid":2,"us":12345,"name":"pool.task","value":99,"crc":"3ed2b848f365212e"}"#,
    r#"{"ev":"mark","tid":2,"us":12345,"name":"pool.task","arg":"q\"b\\n\nt\tc\u0001é","value":99,"crc":"0e938678c4be6ca9"}"#,
];
const KINDS: [EventKind; 6] = [
    EventKind::Start,
    EventKind::End,
    EventKind::Counter,
    EventKind::Gauge,
    EventKind::Sample,
    EventKind::Mark,
];

#[test]
fn trace_bytes_are_pinned() {
    let path = temp("trace.jsonl");
    let sink = JsonlSink::create(&path).unwrap();
    for kind in KINDS {
        sink.record(&Event {
            kind,
            id: 7,
            parent: 3,
            tid: 2,
            us: 12345,
            name: "pool.task",
            arg: TRICKY.to_string(),
            value: 99,
        });
    }
    sink.flush();
    assert!(!sink.had_error());
    drop(sink);
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        text,
        format!("{TRACE_HEADER}\n{}\n", TRACE_RECORDS.join("\n"))
    );

    let events = read_trace(&path).unwrap();
    assert_eq!(events.len(), KINDS.len());
    for (ev, kind) in events.iter().zip(KINDS) {
        assert_eq!(ev.kind, kind);
        assert_eq!((ev.tid, ev.us), (2, 12345));
        assert_eq!(ev.name, "pool.task");
    }
    assert_eq!((events[0].id, events[0].parent), (7, 3));
    assert_eq!(events[0].arg, TRICKY);
    assert_eq!((events[1].id, events[1].value), (7, 99));
    assert_eq!(events[2].arg, TRICKY);
}
