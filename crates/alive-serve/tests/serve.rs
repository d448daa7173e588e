//! End-to-end tests for the verification service: cache discipline,
//! persistence, protocol handling, in-flight coalescing under real
//! concurrency, and the unix-socket transport.

use alive_ir::parse_transform;
use alive_serve::proto::{parse_flat_object, JsonValue};
use alive_serve::{handle_connection, ServeConfig, Server};
use alive_verifier::store::StoreOpen;
use alive_verifier::{DriverConfig, OutcomeKind, TransformOutcome, VerifyConfig};
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("alive-serve-tests").join(name);
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

const GOOD: &str = "%r = add %x, 0\n=>\n%r = %x";
const GOOD_VARIANT: &str = "%out = add 0, %a\n=>\n%out = %a";
const BAD: &str = "%r = add %x, 0\n=>\n%r = add %x, 1";

#[test]
fn hit_after_miss_and_across_restart() {
    let dir = temp_dir("restart");
    let store = dir.join("store.jsonl");
    {
        let (server, how) = Server::open(fast_config(store.clone())).unwrap();
        assert_eq!(how, StoreOpen::Created);
        let t = parse_transform(GOOD).unwrap();
        let first = server.check("good", &t);
        assert_eq!(first.verdict, OutcomeKind::Valid);
        assert!(!first.cached);
        // Alpha-renamed + commuted variant: same canonical identity.
        let v = parse_transform(GOOD_VARIANT).unwrap();
        let second = server.check("variant", &v);
        assert!(second.cached);
        assert_eq!(second.hash, first.hash);
        assert_eq!(second.verdict, OutcomeKind::Valid);
        let s = server.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }
    // A fresh daemon over the same store file answers without verifying.
    let (server, how) = Server::open(fast_config(store)).unwrap();
    assert_eq!(
        how,
        StoreOpen::Loaded {
            records: 1,
            discarded: 0
        }
    );
    let t = parse_transform(GOOD).unwrap();
    let again = server.check("good", &t);
    assert!(again.cached);
    assert_eq!(again.verdict, OutcomeKind::Valid);
}

#[test]
fn invalid_verdicts_are_cached_with_their_counterexample() {
    let dir = temp_dir("invalid");
    let (server, _) = Server::open(fast_config(dir.join("store.jsonl"))).unwrap();
    let t = parse_transform(BAD).unwrap();
    let first = server.check("bad", &t);
    assert_eq!(first.verdict, OutcomeKind::Invalid);
    let second = server.check("bad", &t);
    assert!(second.cached);
    assert_eq!(second.verdict, OutcomeKind::Invalid);
    assert_eq!(second.reason, first.reason);
    assert!(!second.reason.is_empty(), "counterexample text survives");
}

#[test]
fn epoch_bump_evicts() {
    let dir = temp_dir("epoch");
    let store = dir.join("store.jsonl");
    {
        let (server, _) = Server::open(fast_config(store.clone())).unwrap();
        server.check("good", &parse_transform(GOOD).unwrap());
    }
    let mut config = fast_config(store);
    config.epoch = 1;
    let (server, how) = Server::open(config).unwrap();
    // The eviction names the settings the old store was written under.
    let desc = alive_verifier::config_description(&VerifyConfig::fast());
    assert_eq!(
        how,
        StoreOpen::Evicted {
            prior_config: alive_verifier::config_fingerprint(&VerifyConfig::fast()),
            prior_epoch: 0,
            prior_desc: Some(desc),
        }
    );
    let answer = server.check("good", &parse_transform(GOOD).unwrap());
    assert!(!answer.cached, "bumped epoch must re-verify");
}

/// A store that is mostly dead records (superseded re-verifications) is
/// compacted automatically when the daemon opens it: the report is
/// surfaced, the file shrinks, and every live verdict still answers as a
/// cached hit.
#[test]
fn mostly_dead_store_is_compacted_at_open() {
    let dir = temp_dir("autocompact");
    let store = dir.join("store.jsonl");
    {
        let (server, _) = Server::open(fast_config(store.clone())).unwrap();
        assert_eq!(
            server
                .check("good", &parse_transform(GOOD).unwrap())
                .verdict,
            OutcomeKind::Valid
        );
    }
    // Supersede the record twice, daemon-side style (same canonical key,
    // same store identity) — 3 replayed, 1 live.
    let fp = alive_verifier::config_fingerprint(&VerifyConfig::fast());
    let desc = alive_verifier::config_description(&VerifyConfig::fast());
    {
        let (mut vs, _) = alive_verifier::VerdictStore::open(&store, fp, 0, Some(&desc)).unwrap();
        let live: Vec<_> = vs
            .live_records()
            .map(|r| (r.canon.clone(), r.verdict, r.reason.clone()))
            .collect();
        for _ in 0..2 {
            for (canon, verdict, reason) in &live {
                vs.insert(canon, *verdict, reason, 1, "").unwrap();
            }
        }
        assert_eq!(vs.replayed(), 3);
    }
    let bloated = std::fs::metadata(&store).unwrap().len();
    let (server, how) = Server::open(fast_config(store.clone())).unwrap();
    assert!(matches!(how, StoreOpen::Loaded { records: 1, .. }));
    let report = server.compaction().expect("open-time compaction ran");
    assert_eq!((report.replayed, report.live, report.dropped), (3, 1, 2));
    assert!(std::fs::metadata(&store).unwrap().len() < bloated);
    let answer = server.check("good", &parse_transform(GOOD).unwrap());
    assert!(answer.cached, "live verdict survives compaction");
    assert_eq!(answer.verdict, OutcomeKind::Valid);
    drop(server);
    // A clean store is left alone on the next open.
    let (server, _) = Server::open(fast_config(store)).unwrap();
    assert!(server.compaction().is_none());
}

/// The satellite-task race: two clients submit the same uncached
/// transform concurrently. Exactly one verification must run; both must
/// receive the identical verdict. Deterministic: the injected verifier
/// refuses to finish until the second client has joined the in-flight
/// entry, so the coalescing path cannot be skipped by lucky timing.
#[test]
fn two_racing_clients_one_verification() {
    let dir = temp_dir("race");
    let (mut server, _) = Server::open(fast_config(dir.join("store.jsonl"))).unwrap();
    let calls = Arc::new(AtomicUsize::new(0));
    let calls_in_verifier = Arc::clone(&calls);
    server.set_verifier(move |name, t, driver| {
        calls_in_verifier.fetch_add(1, Ordering::SeqCst);
        alive_verifier::verify_single(name, t, driver)
    });
    let server = server; // shared from here on
                         // Deterministic overlap: client B blocks on the inflight entry while
                         // client A is still verifying, because A's verifier (above) runs a
                         // real proof and B is released only by A's notify. To make the
                         // overlap certain rather than probable, hold A at a barrier until B
                         // has started.
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let t = parse_transform(GOOD).unwrap();
    let answers: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let server = server.clone();
                let barrier = Arc::clone(&barrier);
                let t = t.clone();
                scope.spawn(move || {
                    barrier.wait();
                    server.check("raced", &t)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(calls.load(Ordering::SeqCst), 1, "exactly one verification");
    assert_eq!(answers[0].verdict, answers[1].verdict);
    assert_eq!(answers[0].hash, answers[1].hash);
    assert_eq!(answers[0].reason, answers[1].reason);
    let s = server.stats();
    assert_eq!(s.misses, 1, "one miss");
    assert_eq!(
        s.hits + s.joins,
        1,
        "the other client hit the store or joined in flight"
    );
    assert_eq!(s.stored, 1, "one store record");
}

/// Same race, but forced through the coalescing path: the verifier spins
/// until the sibling client has joined, so a sequentialized execution
/// (join after leader finishes → store hit) cannot satisfy it.
#[test]
fn racing_client_joins_in_flight_verification() {
    let dir = temp_dir("race-join");
    let (mut server, _) = Server::open(fast_config(dir.join("store.jsonl"))).unwrap();
    let calls = Arc::new(AtomicUsize::new(0));
    let calls2 = Arc::clone(&calls);
    let probe = server.clone();
    server.set_verifier(move |_, _, _| {
        calls2.fetch_add(1, Ordering::SeqCst);
        // Refuse to finish until the sibling client is parked on this
        // verification's in-flight entry: the coalescing path is then the
        // only way it can be answered.
        let deadline = Instant::now() + Duration::from_secs(30);
        while probe.stats().waiters == 0 {
            assert!(Instant::now() < deadline, "joiner never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        TransformOutcome::synthetic("raced", OutcomeKind::Valid, "valid".to_string())
    });
    let server = server;
    let t = parse_transform(GOOD).unwrap();
    let answers: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let server = server.clone();
                let t = t.clone();
                scope.spawn(move || server.check("raced", &t))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(calls.load(Ordering::SeqCst), 1, "exactly one verification");
    assert_eq!(answers[0].verdict, OutcomeKind::Valid);
    assert_eq!(answers[1].verdict, OutcomeKind::Valid);
    let s = server.stats();
    assert_eq!((s.misses, s.joins), (1, 1), "leader missed, sibling joined");
    // Either thread may have won leadership; exactly one of the two
    // answers came from the coalescing (or store-hit) path.
    let joined = answers.iter().filter(|a| a.coalesced || a.cached).count();
    assert_eq!(joined, 1, "exactly one answer joined or hit");
}

#[test]
fn protocol_verify_batch_stats_shutdown() {
    let dir = temp_dir("proto");
    let (server, _) = Server::open(fast_config(dir.join("store.jsonl"))).unwrap();
    let requests = format!(
        concat!(
            "{{\"op\":\"verify\",\"id\":\"a\",\"text\":\"{good}\"}}\n",
            "{{\"op\":\"verify\",\"id\":\"b\",\"text\":\"{good}\"}}\n",
            "{{\"op\":\"batch\",\"id\":\"c\",\"text\":\"Name: g\\n{good}\\nName: b\\n{bad}\"}}\n",
            "{{\"op\":\"verify\",\"id\":\"d\",\"text\":\"%r = bogus\"}}\n",
            "{{\"op\":\"stats\",\"id\":\"e\"}}\n",
            "{{\"op\":\"shutdown\",\"id\":\"f\"}}\n",
            "{{\"op\":\"verify\",\"id\":\"never\",\"text\":\"{good}\"}}\n",
        ),
        good = "%r = add %x, 0\\n=>\\n%r = %x",
        bad = "%r = add %x, 0\\n=>\\n%r = add %x, 1",
    );
    let mut out = Vec::new();
    handle_connection(&server, Cursor::new(requests), &mut out).unwrap();
    let out = String::from_utf8(out).unwrap();
    let lines: Vec<_> = out.lines().collect();
    // a, b, two batch verdicts + done, error for d, stats, shutdown ack.
    assert_eq!(lines.len(), 8, "unexpected response count:\n{out}");
    let a = parse_flat_object(lines[0]).unwrap();
    assert_eq!(a["verdict"], JsonValue::Str("valid".to_string()));
    assert_eq!(a["cached"], JsonValue::Bool(false));
    let b = parse_flat_object(lines[1]).unwrap();
    assert_eq!(b["cached"], JsonValue::Bool(true));
    assert_eq!(a["hash"], b["hash"]);
    // Batch: first item cached (same canonical transform as "a"), second
    // is the invalid one, fresh.
    let c0 = parse_flat_object(lines[2]).unwrap();
    assert_eq!(c0["index"], JsonValue::Num(0));
    assert_eq!(c0["cached"], JsonValue::Bool(true));
    let c1 = parse_flat_object(lines[3]).unwrap();
    assert_eq!(c1["verdict"], JsonValue::Str("invalid".to_string()));
    let done = parse_flat_object(lines[4]).unwrap();
    assert_eq!(done["done"], JsonValue::Bool(true));
    assert_eq!(done["count"], JsonValue::Num(2));
    assert_eq!(done["hits"], JsonValue::Num(1));
    assert_eq!(done["misses"], JsonValue::Num(1));
    let err = parse_flat_object(lines[5]).unwrap();
    assert!(matches!(&err["error"], JsonValue::Str(_)));
    let stats = parse_flat_object(lines[6]).unwrap();
    assert_eq!(stats["stats"], JsonValue::Bool(true));
    let shutdown = parse_flat_object(lines[7]).unwrap();
    assert_eq!(shutdown["shutdown"], JsonValue::Bool(true));
    // handle_connection stops at shutdown: the trailing request with id
    // "never" must not have been served.
    assert!(
        !lines.iter().any(|l| l.contains("\"id\":\"never\"")),
        "request after shutdown must not be served:\n{out}"
    );
}

#[cfg(unix)]
#[test]
fn unix_socket_round_trip() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let dir = temp_dir("unix");
    let (server, _) = Server::open(fast_config(dir.join("store.jsonl"))).unwrap();
    let sock = dir.join("serve.sock");
    let handle = {
        let server = server.clone();
        let sock = sock.clone();
        std::thread::spawn(move || alive_serve::serve_unix(&server, &sock))
    };
    // Wait for the socket to appear.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !sock.exists() {
        assert!(Instant::now() < deadline, "socket never appeared");
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut stream = UnixStream::connect(&sock).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(
        stream,
        "{{\"op\":\"verify\",\"id\":\"u1\",\"text\":\"%r = add %x, 0\\n=>\\n%r = %x\"}}"
    )
    .unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let fields = parse_flat_object(&line).unwrap();
    assert_eq!(fields["id"], JsonValue::Str("u1".to_string()));
    assert_eq!(fields["verdict"], JsonValue::Str("valid".to_string()));
    // Second connection: the verdict is now cached.
    let mut stream2 = UnixStream::connect(&sock).unwrap();
    let mut reader2 = BufReader::new(stream2.try_clone().unwrap());
    writeln!(
        stream2,
        "{{\"op\":\"verify\",\"id\":\"u2\",\"text\":\"%q = add 0, %z\\n=>\\n%q = %z\"}}"
    )
    .unwrap();
    let mut line2 = String::new();
    reader2.read_line(&mut line2).unwrap();
    let fields2 = parse_flat_object(&line2).unwrap();
    assert_eq!(fields2["cached"], JsonValue::Bool(true));
    assert_eq!(fields["hash"], fields2["hash"]);
    // Close the first connection so its handler thread sees EOF — the
    // server joins connection threads on shutdown.
    drop(reader);
    drop(stream);
    // Shut the daemon down over the wire.
    writeln!(stream2, "{{\"op\":\"shutdown\",\"id\":\"u3\"}}").unwrap();
    let mut ack = String::new();
    reader2.read_line(&mut ack).unwrap();
    assert!(ack.contains("\"shutdown\":true"));
    handle.join().unwrap().unwrap();
    assert!(!sock.exists(), "socket file removed on shutdown");
}
