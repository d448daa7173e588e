//! End-to-end telemetry tests: known-latency fake verifications shape
//! the stats-op percentiles, slow misses land in the slow-query log,
//! and a request id submitted over the wire is traceable down to its
//! verification spans.

use alive_ir::parse_transform;
use alive_serve::proto::{parse_response, Response};
use alive_serve::slowlog::read_slowlog;
use alive_serve::{handle_connection, ServeConfig, Server};
use alive_trace::{read_trace, JsonlSink, TraceStats, Tracer};
use alive_verifier::{DriverConfig, OutcomeKind, TransformOutcome, VerifyConfig};
use std::io::Cursor;
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("alive-telemetry-tests")
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fast_config(store_path: PathBuf) -> ServeConfig {
    ServeConfig {
        driver: DriverConfig {
            verify: VerifyConfig::fast(),
            ..Default::default()
        },
        store_path,
        ..Default::default()
    }
}

/// Distinct canonical transforms: the constant varies.
fn transform(i: u64) -> alive_ir::Transform {
    parse_transform(&format!("%r = add %x, {i}\n=>\n%r = %x")).unwrap()
}

/// Fake verifications with known latencies must shape the telemetry:
/// the miss series sees every sleep, the percentile estimates bound the
/// injected latencies, and a hit lands in the hit series.
#[test]
fn known_latency_fakes_shape_the_percentiles() {
    let dir = temp_dir("latency");
    let (mut server, _) = Server::open(fast_config(dir.join("store.jsonl"))).unwrap();
    // Sleep the number of milliseconds encoded in the transform name.
    server.set_verifier(|name, _, _| {
        let ms: u64 = name.trim_start_matches("sleep").parse().unwrap();
        std::thread::sleep(Duration::from_millis(ms));
        TransformOutcome::synthetic(name, OutcomeKind::Valid, "valid".to_string())
    });
    let server = server;
    // Nine 5 ms misses and one 80 ms straggler.
    for i in 0..10u64 {
        let ms = if i == 9 { 80 } else { 5 };
        let a = server.check_rid(&format!("sleep{ms}"), &transform(i), "rq-test");
        assert!(!a.cached);
        assert!(
            a.timing.verify_us >= ms * 1_000,
            "verify span covers the sleep"
        );
    }
    // One hit: re-ask the first transform.
    let hit = server.check("sleep5", &transform(0));
    assert!(hit.cached);

    let tel = server.telemetry();
    assert_eq!(tel.miss.count, 10);
    assert_eq!(tel.hit.count, 1);
    // Every miss slept at least 5 ms; the log2 estimate is an upper
    // bound, so p50 must be >= the exact median (>= 5 ms).
    assert!(
        tel.miss.p50_us >= 5_000,
        "p50 {} too small",
        tel.miss.p50_us
    );
    assert!(
        tel.miss.p99_us >= 80_000,
        "p99 {} misses straggler",
        tel.miss.p99_us
    );
    assert!(tel.miss.max_us >= 80_000);
    // The estimate never exceeds the observed maximum.
    assert!(tel.miss.p99_us <= tel.miss.max_us);
    assert!(
        tel.hit.max_us < tel.miss.p50_us,
        "hits ({}) skip verification, misses ({}) sleep",
        tel.hit.max_us,
        tel.miss.p50_us
    );
    // All ten misses happened within the first window.
    assert_eq!(tel.miss.window_count, 10);
    assert!(tel.miss.rate_x1000 > 0);

    // The same numbers travel the wire as the proto-2 telemetry block.
    let mut out = Vec::new();
    handle_connection(
        &server,
        Cursor::new("{\"op\":\"stats\",\"id\":\"s\"}\n"),
        &mut out,
    )
    .unwrap();
    let line = String::from_utf8(out).unwrap();
    let Response::Stats(s) = parse_response(line.lines().next().unwrap()).unwrap() else {
        panic!("not a stats line: {line}");
    };
    assert_eq!(s.proto, 2);
    let block = s.telemetry.expect("proto-2 stats carries telemetry");
    assert_eq!(block.v, 1);
    assert_eq!(block.miss.count, 10);
    assert_eq!(block.miss.p50_us, tel.miss.p50_us);
    assert_eq!(block.miss.p99_us, tel.miss.p99_us);
    assert_eq!(block.hit.count, 1);
    assert_eq!(block.window_ms, tel.window_ms);
}

/// With `--slow-ms`, misses at or over the threshold append sealed
/// records to `<store>.slowlog`, readable and rankable afterwards.
#[test]
fn slow_misses_land_in_the_slowlog() {
    let dir = temp_dir("slowlog");
    let store = dir.join("store.jsonl");
    let mut config = fast_config(store.clone());
    config.slow_ms = Some(25);
    let (mut server, _) = Server::open(config).unwrap();
    server.set_verifier(|name, _, _| {
        // Synthetic outcomes with a chosen wall time: "fast" stays under
        // the 25 ms threshold, "slow" crosses it.
        let mut o = TransformOutcome::synthetic(name, OutcomeKind::Valid, "valid".to_string());
        o.wall = if name == "slow" {
            Duration::from_millis(40)
        } else {
            Duration::from_millis(1)
        };
        o.phases.solve = Duration::from_millis(30);
        o.conflicts = 7;
        o
    });
    let server = server;
    let fast = server.check_rid("fast", &transform(1), "rq-fast");
    let slow = server.check_rid("slow", &transform(2), "rq-slow");
    assert!(!fast.cached && !slow.cached);

    let mut slowlog_path = store.into_os_string();
    slowlog_path.push(".slowlog");
    let (records, skipped) = read_slowlog(&PathBuf::from(slowlog_path)).unwrap();
    assert_eq!(skipped, 0);
    assert_eq!(records.len(), 1, "only the over-threshold miss is logged");
    let r = &records[0];
    assert_eq!(r.rid, "rq-slow");
    assert_eq!(r.name, "slow");
    assert_eq!(r.hash, slow.hash);
    assert_eq!(r.verdict, "valid");
    assert_eq!(r.wall_ms, 40);
    assert_eq!(r.threshold_ms, 25);
    assert_eq!(r.solve_us, 30_000);
    assert_eq!(r.conflicts, 7);
    let offenders = alive_serve::slowlog::rank(&records);
    assert_eq!(offenders.len(), 1);
    assert_eq!(offenders[0].hash, slow.hash);
    assert_eq!(offenders[0].max_ms, 40);
}

/// A request id submitted over the wire is traceable: the daemon trace
/// contains a serve.request span tagged with the id, and
/// `TraceStats::for_request` reconstructs that one request's phase
/// breakdown (the `alive stats --request` path).
#[test]
fn request_id_threads_through_the_trace() {
    let dir = temp_dir("trace");
    let trace_path = dir.join("daemon.trace");
    let mut config = fast_config(dir.join("store.jsonl"));
    config.tracer = Tracer::new(Box::new(JsonlSink::create(&trace_path).unwrap()));
    let (server, _) = Server::open(config).unwrap();
    let requests = concat!(
        "{\"op\":\"verify\",\"id\":\"my-req\",\"text\":\"%r = add %x, 0\\n=>\\n%r = %x\"}\n",
        "{\"op\":\"verify\",\"id\":\"other\",\"text\":\"%r = add %x, 1\\n=>\\n%r = %x\"}\n",
    );
    let mut out = Vec::new();
    handle_connection(&server, Cursor::new(requests), &mut out).unwrap();
    // The verdict line echoes the rid it was traced under.
    let line = String::from_utf8(out).unwrap();
    let Response::Verdict(v) = parse_response(line.lines().next().unwrap()).unwrap() else {
        panic!("not a verdict line: {line}");
    };
    assert_eq!(v.rid, "my-req");
    drop(server); // flush the trace file

    let events = read_trace(&trace_path).unwrap();
    let stats = TraceStats::for_request(&events, "my-req")
        .unwrap()
        .expect("request subtree found in the trace");
    let phases: Vec<&String> = stats.phases.keys().collect();
    assert!(
        stats.phases.contains_key("serve.request"),
        "phases: {phases:?}"
    );
    assert!(
        stats.phases.contains_key("serve.lookup"),
        "phases: {phases:?}"
    );
    assert!(
        stats.phases.contains_key("serve.canon"),
        "phases: {phases:?}"
    );
    // The verification ran on the connection thread, nested under the
    // request span — solver-level spans belong to this request.
    assert!(
        stats.phases.contains_key("sat.solve") || stats.phases.contains_key("encode"),
        "verification spans nest under the request: {phases:?}"
    );
    // One request's subtree only: the sibling request is excluded.
    let other = TraceStats::for_request(&events, "other").unwrap().unwrap();
    assert!(TraceStats::for_request(&events, "absent")
        .unwrap()
        .is_none());
    assert_ne!(stats.phases.len(), 0);
    assert_ne!(other.phases.len(), 0);
}

/// Daemon-minted request ids: a wire request without an id still gets a
/// traceable `rq-<n>` identity echoed on its verdict line.
#[test]
fn daemon_mints_request_ids_when_the_client_sends_none() {
    let dir = temp_dir("mint");
    let (server, _) = Server::open(fast_config(dir.join("store.jsonl"))).unwrap();
    let requests = concat!(
        "{\"op\":\"verify\",\"text\":\"%r = add %x, 0\\n=>\\n%r = %x\"}\n",
        "{\"op\":\"verify\",\"text\":\"%r = add %x, 0\\n=>\\n%r = %x\"}\n",
    );
    let mut out = Vec::new();
    handle_connection(&server, Cursor::new(requests), &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let rids: Vec<String> = text
        .lines()
        .map(|l| match parse_response(l).unwrap() {
            Response::Verdict(v) => v.rid,
            other => panic!("unexpected response: {other:?}"),
        })
        .collect();
    assert_eq!(rids, vec!["rq-1".to_string(), "rq-2".to_string()]);
}
