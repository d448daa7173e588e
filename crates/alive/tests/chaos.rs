//! The serve chaos harness: a retrying client fleet runs the paper's
//! corpus against a real `alive serve` daemon that is SIGKILLed and
//! restarted mid-corpus. Every restart exercises the crash-only
//! machinery end to end — stale socket reclaim, stale lock reclaim, torn
//! store-tail truncation — and every verdict the fleet collects is
//! cross-checked against a one-shot in-process verification with the
//! identical config. Zero wrong verdicts, zero hangs.
//!
//! The non-ignored test runs a small corpus slice so `cargo test` stays
//! fast; the full 224-entry sweep (plus `ALIVE_FAULT` durable/serve
//! faults, which need `--features fault-injection`) runs under
//! `-- --ignored` in the CI `serve-chaos` job.

#![cfg(unix)]

use alive::serve::client::{Client, ClientConfig};
use alive_suite::{full_corpus, SuiteEntry};
use alive_verifier::{verify_single, DriverConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("alive-chaos-tests").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A daemon process under chaos: spawn, SIGKILL, respawn.
struct Daemon {
    child: Child,
    sock: PathBuf,
    store: PathBuf,
    fault: Option<String>,
}

impl Daemon {
    /// The request deadline is off: this harness asserts verdict
    /// consistency against an unlimited one-shot run, and a contended
    /// debug-build verification that blows a deadline would yield an
    /// honest `unknown` the cross-check counts as wrong. Deadline
    /// behavior has its own tests (`alive-serve/tests/robust.rs`).
    fn spawn(sock: &Path, store: &Path, fault: Option<&str>) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_alive"));
        cmd.args(["serve", "--fast", "--request-timeout", "0", "--socket"])
            .arg(sock)
            .arg("--store")
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(plan) = fault {
            cmd.env("ALIVE_FAULT", plan);
        }
        let child = cmd.spawn().expect("daemon spawns");
        let daemon = Daemon {
            child,
            sock: sock.to_path_buf(),
            store: store.to_path_buf(),
            fault: fault.map(str::to_string),
        };
        daemon.wait_ready();
        daemon
    }

    /// Polls until the daemon answers its socket. A stale socket file
    /// from a killed predecessor refuses connections until the new
    /// incarnation reclaims and rebinds it, so "file exists" is not
    /// enough — only a successful connect is.
    fn wait_ready(&self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if std::os::unix::net::UnixStream::connect(&self.sock).is_ok() {
                return;
            }
            assert!(Instant::now() < deadline, "daemon never became ready");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// SIGKILL — no drain, no cleanup: the socket file, the lock file,
    /// and possibly a torn store tail are all left for the successor.
    fn kill9(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }

    fn respawn(&mut self) {
        self.kill9();
        *self = Daemon::spawn(
            &self.sock.clone(),
            &self.store.clone(),
            self.fault.as_deref(),
        );
    }
}

/// A failed assertion must not leak the daemon process.
impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill9();
    }
}

/// Runs `entries` through a fleet of 3 retrying clients while the main
/// thread SIGKILLs and restarts the daemon `kills` times, spread evenly
/// over the fleet's progress: a kill lands each time another
/// `1/(kills + 1)` of the verdicts is in, so the chaos lands mid-fleet
/// however fast verification is, and kills never outpace it (which would
/// livelock — the store snapshots progress, but only between kills).
/// Then cross-checks every collected verdict in-process. Panics on any
/// wrong verdict; a hang fails via the clients' bounded retries.
fn run_chaos(name: &str, entries: Vec<SuiteEntry>, fault: Option<&str>, kills: usize) {
    let dir = temp_dir(name);
    let sock = dir.join("serve.sock");
    let store = dir.join("store.jsonl");
    let mut daemon = Daemon::spawn(&sock, &store, fault);

    let done = AtomicUsize::new(0);
    let verdicts: Vec<(String, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|member| {
                let entries = &entries;
                let done = &done;
                let sock = sock.clone();
                scope.spawn(move || {
                    let mut client = Client::new(ClientConfig {
                        socket: sock,
                        max_retries: 120,
                        base_backoff: Duration::from_millis(5),
                        max_backoff: Duration::from_millis(250),
                        io_timeout: Duration::from_secs(120),
                        seed: 0xc4a0_5000 + member as u64,
                    });
                    let mut out = Vec::new();
                    for e in entries.iter().skip(member).step_by(3) {
                        let v = client
                            .verify(&e.transform.to_string())
                            .unwrap_or_else(|err| panic!("client {member} on {}: {err}", e.name));
                        assert_eq!(v.name, e.name, "daemon echoed the wrong transform");
                        out.push((e.name.clone(), v.verdict));
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    out
                })
            })
            .collect();

        // Chaos, from the main thread: kill -9 and restart while the
        // fleet works through its share.
        let mut killed = 0usize;
        while handles.iter().any(|h| !h.is_finished()) {
            std::thread::sleep(Duration::from_millis(1));
            let due = (killed + 1) * entries.len() / (kills + 1);
            if killed < kills && done.load(Ordering::Relaxed) >= due {
                daemon.respawn();
                killed += 1;
            }
        }
        assert_eq!(
            killed, kills,
            "the fleet finished before all the chaos landed"
        );
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    daemon.kill9();
    assert_eq!(verdicts.len(), entries.len(), "every entry got a verdict");

    // The paranoid one-shot run: same transforms, same config, no
    // daemon, no cache, no chaos. Any disagreement is a wrong verdict.
    let driver = DriverConfig {
        verify: alive::VerifyConfig::fast(),
        ..DriverConfig::default()
    };
    let expected: HashMap<String, &'static str> = entries
        .iter()
        .map(|e| {
            let outcome = verify_single(&e.name, &e.transform, &driver);
            (e.name.clone(), outcome.kind.as_str())
        })
        .collect();
    let mut wrong = Vec::new();
    for (name, got) in &verdicts {
        let want = expected[name];
        if got != want {
            wrong.push(format!(
                "{name}: fleet said {got}, one-shot run says {want}"
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "wrong verdicts under chaos:\n{}",
        wrong.join("\n")
    );
}

/// A slice of the corpus under kill -9 chaos: fast enough for every
/// `cargo test` run. Mixes verifiably-correct entries with two of the
/// Fig. 8 bugs so both verdict polarities cross the wire mid-chaos.
#[test]
fn client_fleet_survives_daemon_kills_on_a_corpus_slice() {
    let all = full_corpus();
    let mut entries: Vec<SuiteEntry> = all
        .iter()
        .filter(|e| !e.expected_bug)
        .take(10)
        .cloned()
        .collect();
    entries.extend(all.iter().filter(|e| e.expected_bug).take(2).cloned());
    run_chaos("smoke", entries, None, 2);
}

/// The full 224-entry corpus with durable/serve faults injected into
/// every daemon incarnation (the ordinals re-fire after each restart). Run
/// in CI as `cargo test -p alive --features fault-injection --test chaos
/// -- --ignored`. Only verdict-preserving fault kinds are injected: a lost
/// record append, a failed record sync (the store refuses every later
/// append until the next incarnation reopens it), a torn response, a
/// response write error — never a corrupted verdict, and never a process
/// death the harness did not schedule. A fresh store costs 4 durable
/// operations (create, header append, sync, directory sync), reopening an
/// intact one none (truncating a torn tail 2), and each record 2 (append,
/// sync), so ordinal 9 lands on a record's append and ordinal 18 on a
/// record's sync.
#[test]
#[ignore = "minutes-long full-corpus sweep; run by the serve-chaos CI job"]
fn full_corpus_with_faults_and_kills_yields_zero_wrong_verdicts() {
    let fault = if cfg!(feature = "fault-injection") {
        Some("durable:io-error@9,durable:io-error@18,serve:torn@5,serve:io-error@9")
    } else {
        None
    };
    run_chaos("full", full_corpus(), fault, 5);
}

/// Scrub round-trip against the real binaries: a daemon fills a store, a
/// byte flip corrupts a middle record, the next daemon refuses to open
/// it (pointing at `alive scrub`), scrub quarantines the bad line and
/// salvages the rest, and the daemon after that serves the salvaged
/// verdicts warm.
#[test]
fn scrub_cli_salvages_a_corrupted_store_for_the_next_daemon() {
    let dir = temp_dir("scrub-cli");
    let sock = dir.join("serve.sock");
    let store = dir.join("store.jsonl");
    let entries: Vec<SuiteEntry> = full_corpus()
        .into_iter()
        .filter(|e| !e.expected_bug)
        .take(4)
        .collect();

    // Fill the store through a real daemon, then stop it cleanly.
    let mut daemon = Daemon::spawn(&sock, &store, None);
    let mut client = Client::new(ClientConfig {
        socket: sock.clone(),
        ..ClientConfig::default()
    });
    for e in &entries {
        let v = client.verify(&e.transform.to_string()).unwrap();
        assert_eq!(v.name, e.name);
    }
    client.shutdown().unwrap();
    daemon.child.wait().unwrap();

    // Flip one byte inside the second record (line 3: header, then one
    // line per verdict): its CRC seal no longer matches.
    let mut bytes = std::fs::read(&store).unwrap();
    let line_starts: Vec<usize> = std::iter::once(0)
        .chain(
            bytes
                .iter()
                .enumerate()
                .filter(|(_, b)| **b == b'\n')
                .map(|(i, _)| i + 1),
        )
        .collect();
    let target = line_starts[2] + 10;
    bytes[target] ^= 0x01;
    std::fs::write(&store, &bytes).unwrap();

    // A daemon refuses the mid-file damage and names the salvage tool.
    let refused = Command::new(env!("CARGO_BIN_EXE_alive"))
        .args(["serve", "--fast", "--stdio", "--store"])
        .arg(&store)
        .stdin(Stdio::null())
        .output()
        .unwrap();
    assert!(
        !refused.status.success(),
        "daemon must refuse a corrupt store"
    );
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(
        stderr.contains("alive scrub"),
        "stderr points at scrub:\n{stderr}"
    );

    // Scrub: quarantine the bad line, rewrite the good ones.
    let scrubbed = Command::new(env!("CARGO_BIN_EXE_alive"))
        .arg("scrub")
        .arg(&store)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&scrubbed.stdout);
    assert!(scrubbed.status.success(), "scrub failed:\n{stdout}");
    assert!(stdout.contains("3 salvaged"), "{stdout}");
    assert!(stdout.contains("1 quarantined"), "{stdout}");
    let quarantine = dir.join("store.jsonl.quarantine");
    assert!(quarantine.exists(), "corrupt line preserved, not discarded");

    // The next daemon loads the salvaged store and serves it warm; the
    // quarantined verdict is re-verified, not resurrected.
    let mut daemon = Daemon::spawn(&sock, &store, None);
    let mut client = Client::new(ClientConfig {
        socket: sock,
        ..ClientConfig::default()
    });
    let mut cached = 0;
    for e in &entries {
        let v = client.verify(&e.transform.to_string()).unwrap();
        assert_eq!(v.verdict, "valid", "{}", e.name);
        cached += v.cached as usize;
    }
    assert_eq!(cached, 3, "exactly the salvaged records answer warm");
    client.shutdown().unwrap();
    daemon.child.wait().unwrap();
}
