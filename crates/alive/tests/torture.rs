//! Crash-point torture: the SQLite-style sweep over the durable-I/O seam.
//!
//! Every create, append, fsync, truncate, rename, and directory sync in
//! the system is a numbered crash point: the `durable` site of the one
//! fault plan (`ALIVE_FAULT=durable:abort@N` or `durable:torn@N`,
//! fault-injection builds). These tests run a real serve workload and a
//! real `--journal` batch workload through the real binaries, crashing the
//! process at durable operation 1, then 2, then 3, ... until a run
//! completes with no crash left to fire — so *every* reachable crash point
//! in the workload is exercised, not a sampled few. After each crash the
//! harness asserts the three durability promises:
//!
//! * **recovery succeeds** — a fresh daemon opens the store (evicting a
//!   header-torn file, truncating a torn tail), or `alive scrub` salvages
//!   it; a fresh `--resume` replays the batch run's store;
//! * **no acknowledged verdict is lost** — every answer a client received
//!   before the crash is served warm (from the store) after recovery;
//! * **no wrong verdict is ever served** — every answer, before or after
//!   the crash, matches a clean one-shot in-process run of the identical
//!   config.
//!
//! Without `--features fault-injection` the crash hooks do not exist and
//! each sweep degenerates to a single clean run — still checked for
//! verdict consistency, but the point of this file is
//! `cargo test -p alive --features fault-injection --test torture`
//! (the CI `durability` job, which also runs the `--ignored` torn-write
//! variants).

#![cfg(unix)]

use alive::ir::canonical_text;
use alive::serve::client::{Client, ClientConfig};
use alive_suite::{full_corpus, SuiteEntry};
use alive_verifier::{config_fingerprint, verify_single, DriverConfig, StoreOpen, VerdictStore};
use std::collections::HashMap;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// `std::process::abort` raises SIGABRT; any other exit after a crash
/// point fired means the injection machinery misbehaved.
const SIGABRT: i32 = 6;

/// Sweep bound: the serve and `--journal` workloads below perform ~10
/// durable operations each, so a sweep that reaches 64 without a clean
/// run means the op count exploded — fail loudly rather than loop.
const MAX_CRASH_POINT: u64 = 64;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("alive-torture-tests").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Three verifiably-correct corpus entries: small enough that each sweep
/// iteration is cheap, enough inserts that the crash points cover header
/// creation, mid-workload appends, and their fsyncs.
fn workload() -> Vec<SuiteEntry> {
    full_corpus()
        .into_iter()
        .filter(|e| !e.expected_bug)
        .take(3)
        .collect()
}

/// The clean one-shot reference run: same transforms, same config, no
/// daemon, no crash. Every verdict the torture runs collect is checked
/// against this.
fn reference(entries: &[SuiteEntry]) -> HashMap<String, String> {
    let driver = DriverConfig {
        verify: alive::VerifyConfig::fast(),
        ..DriverConfig::default()
    };
    entries
        .iter()
        .map(|e| {
            let outcome = verify_single(&e.name, &e.transform, &driver);
            (e.name.clone(), outcome.kind.as_str().to_string())
        })
        .collect()
}

fn aborted(status: ExitStatus) -> bool {
    status.signal() == Some(SIGABRT)
}

/// A daemon that must not outlive a failed assertion.
struct Daemon {
    child: Child,
}

impl Daemon {
    /// Waits for the clean exit after a `shutdown` request.
    fn wait(&mut self) -> ExitStatus {
        self.child.wait().expect("daemon exit status")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// Spawns `alive serve` on `sock`/`store`, optionally with an armed
/// crash point, and polls until it either answers its socket or dies —
/// a crash during store creation kills the daemon before it ever binds,
/// and that exit must be observed, not waited on forever.
fn spawn_daemon(sock: &Path, store: &Path, crash: Option<&str>) -> Result<Daemon, ExitStatus> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_alive"));
    cmd.args(["serve", "--fast", "--request-timeout", "0", "--socket"])
        .arg(sock)
        .arg("--store")
        .arg(store)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(spec) = crash {
        cmd.env("ALIVE_FAULT", spec);
    }
    let mut child = cmd.spawn().expect("daemon spawns");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if std::os::unix::net::UnixStream::connect(sock).is_ok() {
            return Ok(Daemon { child });
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            return Err(status);
        }
        assert!(
            Instant::now() < deadline,
            "daemon neither became ready nor exited"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One client pass over the workload. Returns every *acknowledged*
/// answer `(name, verdict, cached)` and whether the pass completed; a
/// daemon that crashes mid-pass surfaces as a client error after bounded
/// retries, and everything acknowledged before that is the prefix the
/// durability promises protect.
fn run_workload(sock: &Path, entries: &[SuiteEntry]) -> (Vec<(String, String, bool)>, bool) {
    let mut client = Client::new(ClientConfig {
        socket: sock.to_path_buf(),
        max_retries: 3,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(20),
        io_timeout: Duration::from_secs(120),
        seed: 0x7047,
    });
    let mut acked = Vec::new();
    for e in entries {
        match client.verify(&e.transform.to_string()) {
            Ok(v) => {
                assert_eq!(v.name, e.name, "daemon echoed the wrong transform");
                acked.push((e.name.clone(), v.verdict, v.cached));
            }
            Err(_) => return (acked, false),
        }
    }
    (acked, true)
}

/// Every collected verdict must match the clean reference run — wrong
/// verdicts are the one unforgivable failure, crash or no crash.
fn check_verdicts(
    answers: &[(String, String, bool)],
    expected: &HashMap<String, String>,
    ctx: &str,
) {
    for (name, verdict, _) in answers {
        assert_eq!(
            verdict, &expected[name],
            "{ctx}: wrong verdict served for {name}"
        );
    }
}

/// Sweeps `ALIVE_FAULT = durable:{kind}@1, durable:{kind}@2, ...` over
/// the serve workload until a run completes with no crash fired,
/// asserting the full recovery contract after every crash. Returns the
/// first clean crash point (one past the workload's durable-op count).
fn sweep_serve(name: &str, kind: &str) -> u64 {
    let entries = workload();
    let expected = reference(&entries);
    for n in 1..=MAX_CRASH_POINT {
        let spec = format!("durable:{kind}@{n}");
        let ctx = format!("{name} crash point {spec}");
        let dir = temp_dir(&format!("{name}-{n}"));
        let sock = dir.join("serve.sock");
        let store = dir.join("store.jsonl");

        // Phase 1: the doomed run. Either the crash fires (startup or
        // mid-workload) or the whole workload lands clean and the sweep
        // has exhausted every reachable crash point.
        let acked = match spawn_daemon(&sock, &store, Some(&spec)) {
            Err(status) => {
                // Crashed creating the store, before the socket bound.
                assert!(
                    aborted(status),
                    "{ctx}: startup death was not SIGABRT: {status:?}"
                );
                Vec::new()
            }
            Ok(mut daemon) => {
                let (acked, complete) = run_workload(&sock, &entries);
                check_verdicts(&acked, &expected, &ctx);
                if complete {
                    match daemon.child.try_wait().expect("try_wait") {
                        Some(status) => {
                            assert!(aborted(status), "{ctx}: {status:?}");
                        }
                        None => {
                            // Still alive with the workload done: ask it to
                            // stop. A clean exit means the crash point was
                            // never reached — the sweep is over.
                            let mut c = Client::new(ClientConfig {
                                socket: sock.clone(),
                                ..ClientConfig::default()
                            });
                            c.shutdown().expect("shutdown");
                            let status = daemon.wait();
                            if status.success() {
                                assert_eq!(acked.len(), entries.len());
                                return n;
                            }
                            assert!(aborted(status), "{ctx}: {status:?}");
                        }
                    }
                } else {
                    let status = daemon.wait();
                    assert!(
                        aborted(status),
                        "{ctx}: workload failed but daemon exit was {status:?}"
                    );
                }
                acked
            }
        };

        // Phase 2: recovery. A fresh daemon must open whatever the crash
        // left behind — no file, a header-torn file (evicted), a torn
        // tail (truncated) — or, failing that, `alive scrub` must
        // salvage it and the daemon after that must open.
        let mut daemon = match spawn_daemon(&sock, &store, None) {
            Ok(d) => d,
            Err(status) => {
                assert!(
                    !aborted(status),
                    "{ctx}: recovery daemon aborted with no crash armed"
                );
                let scrub = Command::new(env!("CARGO_BIN_EXE_alive"))
                    .arg("scrub")
                    .arg(&store)
                    .output()
                    .unwrap();
                assert!(
                    scrub.status.success(),
                    "{ctx}: neither open nor scrub recovered the store:\n{}",
                    String::from_utf8_lossy(&scrub.stderr)
                );
                match spawn_daemon(&sock, &store, None) {
                    Ok(d) => d,
                    Err(status) => panic!("{ctx}: daemon refused the scrubbed store: {status:?}"),
                }
            }
        };

        // Phase 3: the recovered daemon re-runs the whole workload. All
        // verdicts correct; everything acknowledged before the crash is
        // answered from the store, not re-verified — an ack means the
        // record was fsync'd before the response went out.
        let (recovered, complete) = run_workload(&sock, &entries);
        assert!(complete, "{ctx}: recovery workload did not complete");
        check_verdicts(&recovered, &expected, &ctx);
        let warm: HashMap<&str, bool> = recovered
            .iter()
            .map(|(name, _, cached)| (name.as_str(), *cached))
            .collect();
        for (name, _, _) in &acked {
            assert!(
                warm[name.as_str()],
                "{ctx}: acknowledged verdict for {name} was lost (re-verified cold after recovery)"
            );
        }
        let mut c = Client::new(ClientConfig {
            socket: sock.clone(),
            ..ClientConfig::default()
        });
        c.shutdown().expect("shutdown");
        let status = daemon.wait();
        assert!(status.success(), "{ctx}: recovery daemon exit {status:?}");
    }
    panic!("{name}: no clean run within {MAX_CRASH_POINT} crash points — the workload's durable-op count exploded");
}

/// Sweeps crash points over a `--journal` verify run; recovery is
/// `--resume` on the same store (or a fresh `--journal` run when the
/// crash predates the file's existence). After recovery the store must
/// hold a correct verdict for every transform.
fn sweep_journal(name: &str, kind: &str) -> u64 {
    let entries = workload();
    let expected = reference(&entries);
    let mut corpus = String::new();
    for e in &entries {
        corpus.push_str(&e.transform.to_string());
        corpus.push('\n');
    }
    for n in 1..=MAX_CRASH_POINT {
        let spec = format!("durable:{kind}@{n}");
        let ctx = format!("{name} crash point {spec}");
        let dir = temp_dir(&format!("{name}-{n}"));
        let opt = dir.join("corpus.opt");
        let journal = dir.join("run.journal.jsonl");
        std::fs::write(&opt, &corpus).unwrap();

        let doomed = Command::new(env!("CARGO_BIN_EXE_alive"))
            .args(["--fast", "--journal"])
            .arg(&journal)
            .arg(&opt)
            .env("ALIVE_FAULT", &spec)
            .stdin(Stdio::null())
            .output()
            .unwrap();
        if doomed.status.success() {
            // No crash fired: the sweep has covered every durable op.
            check_journal(&journal, &entries, &expected, &ctx);
            return n;
        }
        assert!(
            aborted(doomed.status),
            "{ctx}: run failed without aborting: {:?}\n{}",
            doomed.status,
            String::from_utf8_lossy(&doomed.stderr)
        );

        // Recovery: resume from whatever the crash left. A store that
        // never made it to disk (crash inside create) means nothing was
        // acknowledged — start over with a fresh `--journal` run.
        let resume = if journal.exists() {
            Command::new(env!("CARGO_BIN_EXE_alive"))
                .args(["--fast", "--resume"])
                .arg(&journal)
                .arg(&opt)
                .stdin(Stdio::null())
                .output()
                .unwrap()
        } else {
            Command::new(env!("CARGO_BIN_EXE_alive"))
                .args(["--fast", "--journal"])
                .arg(&journal)
                .arg(&opt)
                .stdin(Stdio::null())
                .output()
                .unwrap()
        };
        assert!(
            resume.status.success(),
            "{ctx}: recovery run failed:\n{}",
            String::from_utf8_lossy(&resume.stderr)
        );
        check_journal(&journal, &entries, &expected, &ctx);
    }
    panic!("{name}: no clean run within {MAX_CRASH_POINT} crash points — the workload's durable-op count exploded");
}

/// After recovery the store must load cleanly under the run's config and
/// its live record for each transform's canonical text must carry the
/// reference verdict — a stored (i.e. acknowledged-to-the-operator)
/// verdict that went missing or mutated is a durability failure.
fn check_journal(
    path: &Path,
    entries: &[SuiteEntry],
    expected: &HashMap<String, String>,
    ctx: &str,
) {
    let fingerprint = config_fingerprint(&alive::VerifyConfig::fast());
    let (store, how) = VerdictStore::open(path, fingerprint, 0, None)
        .unwrap_or_else(|e| panic!("{ctx}: store unreadable: {e}"));
    assert!(
        matches!(how, StoreOpen::Loaded { .. }),
        "{ctx}: recovered store did not load: {how:?}"
    );
    for e in entries {
        let rec = store
            .lookup(&canonical_text(&e.transform))
            .unwrap_or_else(|| panic!("{ctx}: {} missing from the recovered store", e.name));
        assert_eq!(
            rec.verdict.as_str(),
            expected[&e.name],
            "{ctx}: stored verdict for {}",
            e.name
        );
    }
}

/// The minimum crash points a sweep must find when the hooks exist:
/// store creation is 4 durable ops (create, header append,
/// sync, parent-dir sync) and each of the 3 records is 2 more — a sweep
/// that ends earlier silently stopped counting ops.
const MIN_OPS_WITH_HOOKS: u64 = 7;

fn assert_swept(clean_at: u64, what: &str) {
    if cfg!(feature = "fault-injection") {
        assert!(
            clean_at > MIN_OPS_WITH_HOOKS,
            "{what}: first clean run at crash point {clean_at} — the seam stopped counting durable ops"
        );
    } else {
        eprintln!("note: {what}: crash hooks absent (build without --features fault-injection); single clean run only");
    }
}

/// Abort at every durable op of a serve workload, one op per run.
#[test]
fn serve_workload_survives_every_crash_point() {
    let clean_at = sweep_serve("serve-abort", "abort");
    assert_swept(clean_at, "serve abort sweep");
}

/// Abort at every durable op of a `--journal` run; recover via `--resume`.
#[test]
fn journal_workload_survives_every_crash_point() {
    let clean_at = sweep_journal("journal-abort", "abort");
    assert_swept(clean_at, "journal abort sweep");
}

/// Torn-write variant: each crash point first lands *half* of the bytes
/// an append was writing, then aborts — the exact state `kill -9`
/// mid-`write` leaves. Run by the CI `durability` job.
#[test]
#[ignore = "full torn-write sweep; run by the CI durability job"]
fn serve_workload_survives_torn_writes_at_every_crash_point() {
    let clean_at = sweep_serve("serve-torn", "torn");
    assert_swept(clean_at, "serve torn sweep");
}

/// Torn-write variant of the journal sweep. Run by the CI `durability` job.
#[test]
#[ignore = "full torn-write sweep; run by the CI durability job"]
fn journal_workload_survives_torn_writes_at_every_crash_point() {
    let clean_at = sweep_journal("journal-torn", "torn");
    assert_swept(clean_at, "journal torn sweep");
}
