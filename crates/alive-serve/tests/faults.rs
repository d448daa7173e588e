//! Fault-injection tests for the daemon (`--features fault-injection`):
//! store appends and syncs that fail (the `durable` site), and request
//! handling that hangs or dies mid-response (the `serve` site). The crash-only contract under test: the
//! requester still gets an answer (or a clean close), the daemon
//! survives, and the store never replays a damaged record.

#![cfg(feature = "fault-injection")]

use alive_ir::parse_transform;
use alive_sat::fault::{self, FailurePlan};
use alive_serve::{ServeConfig, ServeLimits, Server};
use alive_trace::{serve as metric, StatsSink, Tracer};
use alive_verifier::store::StoreOpen;
use alive_verifier::{DriverConfig, OutcomeKind, VerifyConfig};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

/// The fault plan is process-global; these tests must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs `spec` for one closure, then clears it.
fn with_plan<T>(spec: &str, f: impl FnOnce() -> T) -> T {
    fault::install(Some(FailurePlan::parse(spec).expect(spec)));
    let out = f();
    fault::install(None);
    out
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("alive-serve-faults").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn metered_config(store_path: PathBuf, sink: &Arc<StatsSink>) -> ServeConfig {
    ServeConfig {
        driver: DriverConfig {
            verify: VerifyConfig::fast(),
            ..Default::default()
        },
        store_path,
        tracer: Tracer::new(Box::new(Arc::clone(sink))),
        limits: ServeLimits::default(),
        ..Default::default()
    }
}

const GOOD: &str = "%r = add %x, 0\n=>\n%r = %x";
const OTHER: &str = "%r = sub %x, 0\n=>\n%r = %x";

/// The disk-full path: the store append fails, but the requester still
/// gets its verdict — losing persistence must not lose the answer. The
/// next daemon start simply re-verifies. The plan is installed after
/// `Server::open`, so durable op 1 is the record's append.
#[test]
fn failed_store_append_still_serves_the_verdict() {
    let _g = serial();
    let dir = temp_dir("disk-full");
    let store = dir.join("store.jsonl");
    let sink = Arc::new(StatsSink::new());
    {
        let (server, _) = Server::open(metered_config(store.clone(), &sink)).unwrap();
        let t = parse_transform(GOOD).unwrap();
        let answer = with_plan("durable:io-error@1", || server.check("good", &t));
        assert_eq!(answer.verdict, OutcomeKind::Valid, "verdict survives");
        let s = server.stats();
        assert_eq!(s.errors, 1, "the lost append is counted");
        assert_eq!(s.stored, 0, "nothing landed in the store");
        assert_eq!(
            sink.snapshot().unwrap().counters[metric::ERROR],
            1,
            "serve.error incremented"
        );
    }
    // Restart: the verdict was never persisted, so it is re-verified —
    // not silently missing, not corrupt.
    let (server, how) = Server::open(metered_config(store, &sink)).unwrap();
    assert_eq!(
        how,
        StoreOpen::Loaded {
            records: 0,
            discarded: 0
        }
    );
    let again = server.check("good", &parse_transform(GOOD).unwrap());
    assert!(!again.cached, "lost append means a fresh verification");
    assert_eq!(again.verdict, OutcomeKind::Valid);
}

/// The fsyncgate path: the record's bytes land but their sync fails. The
/// requester still gets its verdict, and the store refuses that insert and
/// every later one until a reopen re-validates the file — which then
/// replays the record intact and serves the same verdict from it.
#[test]
fn failed_store_sync_poisons_until_reopen() {
    let _g = serial();
    let dir = temp_dir("sync-fail");
    let store = dir.join("store.jsonl");
    let sink = Arc::new(StatsSink::new());
    {
        let (server, _) = Server::open(metered_config(store.clone(), &sink)).unwrap();
        // Durable op 1 is the record's append, op 2 its sync.
        let (first, second) = with_plan("durable:io-error@2", || {
            (
                server.check("good", &parse_transform(GOOD).unwrap()),
                server.check("other", &parse_transform(OTHER).unwrap()),
            )
        });
        assert_eq!(first.verdict, OutcomeKind::Valid, "verdict survives");
        assert_eq!(second.verdict, OutcomeKind::Valid);
        let s = server.stats();
        assert_eq!(s.errors, 2, "the failed sync and the refused insert");
        assert_eq!(s.stored, 0, "a poisoned store persists nothing");
    }
    let (server, how) = Server::open(metered_config(store, &sink)).unwrap();
    assert_eq!(
        how,
        StoreOpen::Loaded {
            records: 1,
            discarded: 0
        },
        "the unsynced record is intact; the refused one never landed"
    );
    let again = server.check("good", &parse_transform(GOOD).unwrap());
    assert!(again.cached, "the reopened store answers from the record");
    assert_eq!(again.verdict, OutcomeKind::Valid);
    assert!(
        !server
            .check("other", &parse_transform(OTHER).unwrap())
            .cached
    );
}

/// An injected hang in request handling resolves on its own bound — the
/// daemon still answers, and a begin_stop cuts the stall short.
#[test]
fn injected_request_hang_is_bounded_by_stop() {
    let _g = serial();
    let dir = temp_dir("hang");
    let sink = Arc::new(StatsSink::new());
    let (server, _) = Server::open(metered_config(dir.join("store.jsonl"), &sink)).unwrap();
    // Cut the stall short: the hang polls `stopping` every 10ms.
    let stopper = {
        let server = server.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            server.begin_stop();
        })
    };
    let mut out = Vec::new();
    let started = std::time::Instant::now();
    let keep_going = with_plan("serve:hang@1", || {
        server.handle_line(
            "{\"op\":\"verify\",\"id\":\"h1\",\"text\":\"%r = add %x, 0\\n=>\\n%r = %x\"}",
            &mut out,
        )
    })
    .unwrap();
    stopper.join().unwrap();
    assert!(
        keep_going,
        "a hung-then-served request keeps the connection"
    );
    assert!(
        started.elapsed() < std::time::Duration::from_secs(2),
        "begin_stop must cut the injected hang short"
    );
    let out = String::from_utf8(out).unwrap();
    assert!(out.contains("\"verdict\":\"valid\""), "{out}");
}

/// A response write that dies mid-line closes that connection with an
/// error; the daemon survives and the next connection is served.
#[test]
fn torn_response_kills_the_connection_not_the_daemon() {
    let _g = serial();
    let dir = temp_dir("torn-response");
    let sink = Arc::new(StatsSink::new());
    let (server, _) = Server::open(metered_config(dir.join("store.jsonl"), &sink)).unwrap();
    let request = "{\"op\":\"verify\",\"id\":\"t1\",\"text\":\"%r = add %x, 0\\n=>\\n%r = %x\"}";

    let mut out = Vec::new();
    let err = with_plan("serve:torn@1", || server.handle_line(request, &mut out))
        .expect_err("a torn response must surface as an I/O error");
    assert!(err.to_string().contains("torn response"), "{err}");
    // The tear left a partial line — exactly what a crashed daemon
    // leaves on the wire; the client treats it as a connection failure.
    assert_eq!(String::from_utf8(out).unwrap(), "{\"id\":\"");

    let mut out = Vec::new();
    let err = with_plan("serve:io-error@1", || server.handle_line(request, &mut out))
        .expect_err("an injected write error must surface");
    assert!(err.to_string().contains("response write error"), "{err}");
    assert!(out.is_empty());

    // The daemon itself is fine: a retry on a fresh connection serves.
    let mut out = Vec::new();
    assert!(server.handle_line(request, &mut out).unwrap());
    let out = String::from_utf8(out).unwrap();
    assert!(out.contains("\"verdict\":\"valid\""), "{out}");
}
