//! Overload and lifecycle tests for the crash-only daemon: admission
//! control, connection shedding, idle-connection closing, graceful
//! drain, socket-path probing, and the client's retry policy.

use alive_ir::parse_transform;
use alive_serve::{ServeConfig, ServeLimits, Server};
use alive_verifier::{DriverConfig, OutcomeKind, TransformOutcome, VerifyConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("alive-robust-tests").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fast_config(store_path: PathBuf, limits: ServeLimits) -> ServeConfig {
    ServeConfig {
        driver: DriverConfig {
            verify: VerifyConfig::fast(),
            ..Default::default()
        },
        store_path,
        limits,
        ..Default::default()
    }
}

const GOOD: &str = "%r = add %x, 0\n=>\n%r = %x";
const OTHER: &str = "%r = sub %x, 0\n=>\n%r = %x";
const THIRD: &str = "%r = or %x, 0\n=>\n%r = %x";

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A verifier stand-in that blocks every verification until `release`
/// is flipped, so tests can hold the queue full deterministically.
fn gated_verifier(
    release: Arc<AtomicBool>,
) -> impl Fn(&str, &alive_ir::Transform, &DriverConfig) -> TransformOutcome + Send + Sync + 'static
{
    move |name, _, _| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !release.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "verifier gate never released");
            std::thread::sleep(Duration::from_millis(1));
        }
        TransformOutcome::synthetic(name, OutcomeKind::Valid, "valid".to_string())
    }
}

/// The admission-control contract: a request that would start a
/// verification past `queue_depth` is refused `busy`, while store hits
/// and in-flight joins — which cost no worker — are always admitted.
#[test]
fn queue_depth_refuses_fresh_work_but_admits_hits_and_joins() {
    let dir = temp_dir("queue-depth");
    let limits = ServeLimits {
        queue_depth: 1,
        ..ServeLimits::default()
    };
    let (mut server, _) = Server::open(fast_config(dir.join("store.jsonl"), limits)).unwrap();

    // Pre-warm the store with one verdict while nothing is in flight.
    let warm = parse_transform(THIRD).unwrap();
    let release_warm = Arc::new(AtomicBool::new(true));
    server.set_verifier(gated_verifier(Arc::clone(&release_warm)));
    assert_eq!(
        server.try_check("warm", &warm).unwrap().verdict,
        OutcomeKind::Valid
    );

    // Now gate the verifier shut and fill the single queue slot.
    let release = Arc::new(AtomicBool::new(false));
    server.set_verifier(gated_verifier(Arc::clone(&release)));
    let server = server;
    let slow = parse_transform(GOOD).unwrap();
    let leader = {
        let server = server.clone();
        let slow = slow.clone();
        std::thread::spawn(move || server.try_check("slow", &slow))
    };
    wait_until("leader in flight", || server.stats().inflight == 1);

    // Fresh work past the cap: refused with a sane retry hint.
    let fresh = parse_transform(OTHER).unwrap();
    let busy = server.try_check("fresh", &fresh).unwrap_err();
    assert!(
        (100..=5_000).contains(&busy.retry_after_ms),
        "retry hint {} out of range",
        busy.retry_after_ms
    );

    // A store hit is always admitted, even with the queue full.
    let hit = server.try_check("warm-again", &warm).unwrap();
    assert!(hit.cached);

    // A join to the in-flight run is always admitted.
    let joiner = {
        let server = server.clone();
        let slow = slow.clone();
        std::thread::spawn(move || server.try_check("slow-too", &slow))
    };
    wait_until("joiner parked", || server.stats().waiters == 1);
    release.store(true, Ordering::SeqCst);
    assert_eq!(leader.join().unwrap().unwrap().verdict, OutcomeKind::Valid);
    assert_eq!(joiner.join().unwrap().unwrap().verdict, OutcomeKind::Valid);

    // The slot is free again: fresh work is admitted.
    assert_eq!(
        server.try_check("fresh", &fresh).unwrap().verdict,
        OutcomeKind::Valid
    );
    let s = server.stats();
    assert_eq!(s.busy, 1, "exactly one busy refusal");
    assert_eq!(s.joins, 1);
    // check() (the embedding API) never refuses, whatever the queue says.
    let _ = server.check("embedded", &parse_transform(GOOD).unwrap());
}

#[cfg(unix)]
mod unix {
    use super::*;
    use alive_serve::proto::{parse_flat_object, parse_response, JsonValue, Response};
    use alive_serve::serve_unix;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::{UnixListener, UnixStream};

    /// Starts `serve_unix` on a background thread and waits for the
    /// socket to accept connections.
    fn spawn_daemon(server: &Server, sock: &Path) -> std::thread::JoinHandle<std::io::Result<()>> {
        let handle = {
            let server = server.clone();
            let sock = sock.to_path_buf();
            std::thread::spawn(move || serve_unix(&server, &sock))
        };
        let sock = sock.to_path_buf();
        wait_until("socket to appear", || sock.exists());
        handle
    }

    /// One connection past `--max-connections` is told `busy` and closed
    /// instead of being queued behind work the daemon cannot take.
    #[test]
    fn connection_cap_sheds_with_a_busy_line() {
        let dir = temp_dir("conn-cap");
        let limits = ServeLimits {
            max_connections: 1,
            ..ServeLimits::default()
        };
        let (server, _) = Server::open(fast_config(dir.join("store.jsonl"), limits)).unwrap();
        let handle = spawn_daemon(&server, &dir.join("serve.sock"));

        let first = UnixStream::connect(dir.join("serve.sock")).unwrap();
        wait_until("first connection registered", || {
            server.stats().connections == 1
        });

        // The second connection is shed: busy line, then EOF.
        let second = UnixStream::connect(dir.join("serve.sock")).unwrap();
        let mut reader = BufReader::new(second);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match parse_response(line.trim_end()).unwrap() {
            Response::Busy { retry_after_ms, .. } => assert!(retry_after_ms > 0),
            other => panic!("expected busy, got {other:?}"),
        }
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "shed then closed");
        wait_until("shed counted", || server.stats().shed == 1);

        drop(first);
        wait_until("first connection gone", || server.stats().connections == 0);
        server.begin_stop();
        handle.join().unwrap().unwrap();
    }

    /// The slow-loris defense: a client that connects and goes silent is
    /// closed after `idle_timeout`, freeing its connection slot.
    #[test]
    fn silent_connection_is_idle_closed() {
        let dir = temp_dir("idle");
        let limits = ServeLimits {
            idle_timeout: Duration::from_millis(300),
            ..ServeLimits::default()
        };
        let (server, _) = Server::open(fast_config(dir.join("store.jsonl"), limits)).unwrap();
        let handle = spawn_daemon(&server, &dir.join("serve.sock"));

        let silent = UnixStream::connect(dir.join("serve.sock")).unwrap();
        let mut reader = BufReader::new(silent);
        let mut line = String::new();
        // The daemon hangs up on us: EOF without a byte sent.
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "idle close is EOF");
        wait_until("idle close counted", || server.stats().idle_closed == 1);
        wait_until("slot released", || server.stats().connections == 0);

        server.begin_stop();
        handle.join().unwrap().unwrap();
    }

    /// Graceful drain: after `begin_stop` the daemon stops accepting but
    /// the in-flight request still gets its verdict before the socket
    /// goes away.
    #[test]
    fn drain_delivers_the_inflight_verdict() {
        let dir = temp_dir("drain");
        let (mut server, _) =
            Server::open(fast_config(dir.join("store.jsonl"), ServeLimits::default())).unwrap();
        let release = Arc::new(AtomicBool::new(false));
        server.set_verifier(gated_verifier(Arc::clone(&release)));
        let server = server;
        let sock = dir.join("serve.sock");
        let handle = spawn_daemon(&server, &sock);

        let mut stream = UnixStream::connect(&sock).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        writeln!(
            stream,
            "{{\"op\":\"verify\",\"id\":\"d1\",\"text\":\"%r = add %x, 0\\n=>\\n%r = %x\"}}"
        )
        .unwrap();
        wait_until("request in flight", || server.stats().inflight == 1);

        server.begin_stop();
        release.store(true, Ordering::SeqCst);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let fields = parse_flat_object(line.trim_end()).unwrap();
        assert_eq!(fields["id"], JsonValue::Str("d1".to_string()));
        assert_eq!(fields["verdict"], JsonValue::Str("valid".to_string()));

        drop(reader);
        drop(stream);
        handle.join().unwrap().unwrap();
        assert!(!sock.exists(), "socket removed after drain");
    }

    /// A socket path with a live daemon behind it is refused; a stale
    /// socket file left by a crashed daemon is reclaimed.
    #[test]
    fn socket_probe_refuses_live_daemon_and_reclaims_stale_file() {
        let dir = temp_dir("probe");
        let sock = dir.join("serve.sock");

        // Stale file: bind a listener, drop it, leave the inode behind.
        drop(UnixListener::bind(&sock).unwrap());
        assert!(sock.exists(), "stale socket file survives its listener");

        let (server, _) =
            Server::open(fast_config(dir.join("store.jsonl"), ServeLimits::default())).unwrap();
        // The daemon reclaims the stale file. That file already satisfies
        // spawn_daemon's wait, so only a successful connect shows the
        // daemon has rebound the path.
        let handle = spawn_daemon(&server, &sock);
        wait_until("daemon to accept", || UnixStream::connect(&sock).is_ok());

        // Live daemon: a second server on the same path must refuse
        // rather than steal the socket out from under it.
        let (second, _) = Server::open(fast_config(
            dir.join("store2.jsonl"),
            ServeLimits::default(),
        ))
        .unwrap();
        let err = serve_unix(&second, &sock).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
        assert!(sock.exists(), "refusal must not remove the live socket");

        server.begin_stop();
        handle.join().unwrap().unwrap();
    }

    /// The client absorbs a `busy` refusal and a daemon restart with
    /// backoff and reconnect, and gives up with `Unavailable` only when
    /// the retries are exhausted.
    #[test]
    fn client_retries_through_busy_and_reconnect() {
        use alive_serve::client::{Client, ClientConfig, ClientError};

        let dir = temp_dir("client-retry");
        let sock = dir.join("serve.sock");

        // A hand-rolled daemon: first connection answers busy, second
        // connection drops without a byte (a crash), third serves.
        let listener = UnixListener::bind(&sock).unwrap();
        let fake = std::thread::spawn(move || {
            for round in 0..3 {
                let (mut stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                match round {
                    0 => {
                        writeln!(
                            stream,
                            "{{\"id\":\"x\",\"busy\":true,\"retry_after_ms\":1}}"
                        )
                        .unwrap();
                    }
                    1 => {} // crash: close without answering
                    _ => {
                        writeln!(
                            stream,
                            "{{\"id\":\"x\",\"index\":0,\"name\":\"n\",\"hash\":\"00\",\
                             \"verdict\":\"valid\",\"cached\":true,\"coalesced\":false,\
                             \"reason\":\"\",\"wall_us\":1,\"cert\":\"\"}}"
                        )
                        .unwrap();
                    }
                }
            }
        });

        let mut client = Client::new(ClientConfig {
            socket: sock,
            max_retries: 8,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            ..ClientConfig::default()
        });
        let verdict = client.verify(GOOD).unwrap();
        assert_eq!(verdict.verdict, "valid");
        assert_eq!(client.busy_seen(), 1, "one busy absorbed");
        assert!(client.retries() >= 2, "busy + reconnect both backed off");
        fake.join().unwrap();

        // No daemon at all: bounded retries, then Unavailable.
        let mut orphan = Client::new(ClientConfig {
            socket: dir.join("nobody-home.sock"),
            max_retries: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            ..ClientConfig::default()
        });
        match orphan.verify(GOOD) {
            Err(ClientError::Unavailable(_)) => {}
            other => panic!("expected Unavailable, got {other:?}"),
        }
        assert_eq!(orphan.retries(), 2);
    }

    /// The client surfaces request-level errors without retrying them:
    /// re-asking a parse failure re-earns the same answer.
    #[test]
    fn client_does_not_retry_request_errors() {
        use alive_serve::client::{Client, ClientConfig, ClientError};

        let dir = temp_dir("client-error");
        let (server, _) =
            Server::open(fast_config(dir.join("store.jsonl"), ServeLimits::default())).unwrap();
        let sock = dir.join("serve.sock");
        let handle = spawn_daemon(&server, &sock);

        let mut client = Client::new(ClientConfig {
            socket: sock,
            base_backoff: Duration::from_millis(1),
            ..ClientConfig::default()
        });
        match client.verify("%r = bogus") {
            Err(ClientError::Request(m)) => assert!(!m.is_empty()),
            other => panic!("expected Request error, got {other:?}"),
        }
        assert_eq!(client.retries(), 0, "request errors are not retried");

        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }
}
