//! The `alive` command-line tool: verify the transformations in `.opt`
//! files, like the original `alive.py`.
//!
//! ```text
//! usage: alive [OPTIONS] <file.opt>...
//!        alive stats <trace.jsonl> [--top <n>] [--folded] [--request <rid>]
//!        alive fuzz [--seed <n>] [--cases <n>] [--max-width <bits>]
//!                   [--max-insts <n>] [--jobs <n>] [--timeout <secs>]
//!                   [--budget <conflicts>] [--corpus <dir>] [--no-minimize]
//!                   [--trace <file>] [--replay <dir>]
//!        alive serve [--store <file>] [--stdio | --socket <path>]
//!                    [--epoch <n>] [--workers <n>] [--fast|--exhaustive]
//!                    [--timeout <secs>] [--budget <conflicts>]
//!                    [--retries <n>] [--cert-dir <dir>] [--trace <file>]
//!                    [--metrics] [--slow-ms <ms>] [--max-connections <n>]
//!                    [--queue-depth <n>] [--request-timeout <secs>]
//!                    [--idle-timeout <secs>] [--drain-timeout <secs>]
//!        alive client --socket <path> [--max-retries <n>] [--seed <n>]
//!                     [--trace-requests] <file.opt>...
//!        alive top --socket <path> [--interval <secs>] [--count <n>]
//!        alive slowlog <store.slowlog> [--top <n>]
//!        alive scrub <store.jsonl>
//!        alive compact <store.jsonl>
//!        alive hash <file.opt>...
//!   --fast            verify at widths {4,8} only
//!   --exhaustive      verify at widths 1..=64 (slow, like the paper)
//!   --cpp             print generated C++ for verified transformations
//!   --infer           run nsw/nuw/exact attribute inference
//!   --proof <dir>     write refinement certificates to <dir> and re-check
//!                     each one with the independent proof checker
//!   --timeout <secs>  wall-clock limit per verification attempt
//!   --budget <n>      SAT conflict budget (retries escalate it)
//!   --retries <n>     escalating retries for budget-exhausted transforms
//!   --keep-going      continue past invalid transforms and errors
//!   --report <file>   write a JSON run report (schema alive-report/v3)
//!   --jobs <n>        verify transforms across <n> supervised workers
//!   --grace <secs>    watchdog grace before an unresponsive worker is
//!                     detached and its transform recorded as hung
//!   --journal <file>  insert every completed outcome into a crash-safe
//!                     verdict store (fsync'd before it is counted); the
//!                     store is the one `alive serve --store` keeps
//!   --resume <file>   reuse verdicts from a verdict store (written by
//!                     --journal or by a daemon), requeue hung/unknown
//!                     entries under an escalated budget, and insert new
//!                     outcomes into the same file
//!   --trace <file>    stream structured trace events (spans, counters,
//!                     histogram samples) to <file> as CRC-sealed JSONL
//!                     (schema alive-trace/v1)
//!   --metrics         print the end-of-run `alive stats` table for the run
//!   --paranoid        re-check every verdict with the differential
//!                     oracle: certificates re-verified independently,
//!                     small-width verdicts brute-forced through the
//!                     concrete interpreter; any disagreement exits 1
//!   --dedupe          collapse transforms that share a canonical form
//!                     (alpha-renaming, commutative operand order) before
//!                     verification; each duplicate reports its
//!                     representative's verdict
//! ```
//!
//! `alive serve` runs verification as a long-running service: requests
//! arrive as line-delimited JSON (stdin/stdout with `--stdio`, a unix
//! socket with `--socket`), every transform is canonicalized, and a
//! persistent content-addressed verdict store answers repeats without
//! touching the solver. The daemon is crash-only: connection and queue
//! limits shed overload with structured `busy` refusals, a lock file
//! enforces one writer per store, SIGINT/SIGTERM drain in-flight work
//! before exiting, and idle connections are closed. See docs/SERVING.md
//! for the protocol and docs/ROBUSTNESS.md for the failure modes.
//!
//! `alive client` submits `.opt` files to a running daemon over its unix
//! socket, absorbing `busy` refusals and daemon restarts with jittered
//! exponential backoff. Exit code `69` means the daemon stayed
//! unavailable through every retry.
//!
//! `alive scrub` salvages a corrupted verdict store offline: every line
//! is CRC-checked independently, corrupt lines are quarantined (not
//! discarded) to `<store>.quarantine`, and the intact records are
//! rewritten as a fresh sealed store.
//!
//! `alive compact` rewrites a verdict store offline keeping only the live
//! (last-wins) record per canonical form — superseded re-verifications
//! stop costing replay time and disk forever. The rewrite is atomic
//! (tmp + fsync + rename + directory fsync) and preserves the header's
//! config fingerprint and epoch byte for byte; the daemon also compacts
//! automatically at open when at least half the replayed records are
//! dead.
//!
//! `alive top` polls a running daemon's `stats` wire op and refreshes a
//! single-screen operator view: request counters, poll-to-poll rates,
//! overload counters, and windowed latency percentiles per series.
//!
//! `alive slowlog` reads the daemon's slow-query log (`--slow-ms`) and
//! ranks the worst verifications per canonical hash.
//!
//! `alive hash` prints each transform's canonical content hash (16 hex
//! digits) — the identity the serve cache and `--dedupe` key on.
//!
//! `alive stats` replays a `--trace` file offline: per-phase self-time
//! breakdown, slowest transforms, counter totals, and (with `--folded`)
//! flamegraph-style folded stacks consumable by `flamegraph.pl`.
//!
//! `alive fuzz` generates seeded random transforms, verifies them through
//! the supervised pool, audits every verdict with the paranoid oracle,
//! shrinks failures with the delta-debugging minimizer, and persists
//! reproducers to a crash corpus (`--corpus`); `--replay <dir>` re-runs a
//! checked-in corpus as a regression suite instead.
//!
//! `--fast` and `--exhaustive` contradict each other and are rejected,
//! whatever their order. Without `--keep-going`, the first invalid
//! transform (or hard error) stops dispatch; the remainder is reported as
//! skipped. Ctrl-C (SIGINT) cancels cooperatively: in-flight solvers wind
//! down at their next budget poll, the pool drains, the partial report is
//! still written, and the exit code is 130. A **second** Ctrl-C while that
//! drain is in progress force-exits 130 immediately — a hung query cannot
//! make Ctrl-C appear dead.
//!
//! Exit codes: `0` all transformations verified, `1` at least one
//! refinement failure (or parse/IO error), `2` inconclusive only
//! (budget exhausted / unknown / hung), `64` usage error, `69` server
//! unavailable (`alive client` only), `130` interrupted.

use alive::fuzz::{paranoid_audit, replay_corpus, run_fuzz, FuzzConfig, OracleConfig};
use alive::ir::{canonical_hash, canonical_text};
use alive::serve::{serve_stdio, ServeConfig, ServeLimits, Server};
use alive::trace::{
    read_trace_lenient, sealed, stats::TOP, JsonlSink, StatsSink, TeeSink, TraceSink, TraceStats,
    Tracer,
};
use alive::{
    generate_cpp, infer_attributes, parse_transforms, Certificate, Transform, VerifyConfig,
};
use alive_verifier::{
    compact_store, config_description, config_fingerprint, fingerprint_diff, plan_resume,
    run_supervised, scrub_store, DriverConfig, OutcomeKind, PoolConfig, RunReport, StoreOpen,
    TaskSpec, TransformOutcome, VerdictStore,
};
use std::collections::HashMap;
use std::io::Write as _;
use std::ops::RangeBounds;
use std::path::{Component, Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A command's entry point. `Err` is a usage error: `main` prints it with
/// the command's usage line and exits 64.
type Run = fn(&mut Cursor<'_>) -> Result<ExitCode, String>;

const VERIFY_USAGE: &str = "alive [--fast|--exhaustive] [--cpp] [--infer] [--proof <dir>] \
     [--timeout <secs>] [--budget <conflicts>] [--retries <n>] [--keep-going] \
     [--report <file.json>] [--jobs <n>] [--grace <secs>] \
     [--journal <file>] [--resume <file>] [--trace <file>] [--metrics] \
     [--paranoid] [--dedupe] <file.opt>...";

/// The subcommands, in `--help` order: name, usage line, entry point.
const COMMANDS: &[(&str, &str, Run)] = &[
    (
        "stats",
        "alive stats <trace.jsonl> [--top <n>] [--folded] [--request <rid>]",
        run_stats,
    ),
    (
        "fuzz",
        "alive fuzz [--seed <n>] [--cases <n>] [--max-width <bits>] [--max-insts <n>] \
         [--jobs <n>] [--timeout <secs>] [--budget <conflicts>] [--corpus <dir>] \
         [--no-minimize] [--trace <file>] [--replay <dir>]",
        run_fuzz_cmd,
    ),
    (
        "serve",
        "alive serve [--store <file>] [--stdio | --socket <path>] [--epoch <n>] \
         [--workers <n>] [--fast|--exhaustive] [--timeout <secs>] [--budget <conflicts>] \
         [--retries <n>] [--cert-dir <dir>] [--trace <file>] [--metrics] [--slow-ms <ms>] \
         [--max-connections <n>] [--queue-depth <n>] [--request-timeout <secs>] \
         [--idle-timeout <secs>] [--drain-timeout <secs>]",
        run_serve,
    ),
    (
        "client",
        "alive client --socket <path> [--max-retries <n>] [--seed <n>] \
         [--trace-requests] <file.opt>...",
        run_client,
    ),
    (
        "top",
        "alive top --socket <path> [--interval <secs>] [--count <n>]",
        run_top,
    ),
    (
        "slowlog",
        "alive slowlog <store.slowlog> [--top <n>]",
        run_slowlog,
    ),
    ("scrub", "alive scrub <store.jsonl>", run_scrub),
    ("compact", "alive compact <store.jsonl>", run_compact),
    ("hash", "alive hash <file.opt>...", run_hash),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = COMMANDS
        .iter()
        .find(|c| args.first().map(String::as_str) == Some(c.0));
    let all_usage: String;
    let (usage, run, rest): (&str, Run, &[String]) = match command {
        Some(&(_, usage, run)) => (usage, run, &args[1..]),
        None => {
            // The top-level usage: the default command, then each subcommand.
            let lines = std::iter::once(VERIFY_USAGE).chain(COMMANDS.iter().map(|c| c.1));
            all_usage = lines.collect::<Vec<_>>().join("\n");
            (&all_usage, run_verify, &args)
        }
    };
    let mut cursor = Cursor {
        args: rest.iter(),
        usage,
    };
    run(&mut cursor).unwrap_or_else(|msg| usage_error(usage, &msg))
}

fn usage_error(usage: &str, msg: &str) -> ExitCode {
    eprintln!("error: {msg}\nusage: {usage}");
    ExitCode::from(64)
}

/// A cursor over one command's arguments. Every reader fails with a
/// `<flag> requires <what>` message.
struct Cursor<'a> {
    args: std::slice::Iter<'a, String>,
    usage: &'a str,
}

impl<'a> Cursor<'a> {
    /// The next flag or positional argument. `-h`/`--help` prints the
    /// usage and exits 0.
    fn next(&mut self) -> Option<&'a str> {
        let arg = self.args.next()?;
        if arg == "-h" || arg == "--help" {
            eprintln!("usage: {}", self.usage);
            std::process::exit(0);
        }
        Some(arg)
    }

    /// Every remaining argument, none of them a flag.
    fn positionals(&mut self) -> Result<Vec<String>, String> {
        let mut all = Vec::new();
        while let Some(arg) = self.next() {
            all.push(positional(arg)?);
        }
        Ok(all)
    }

    /// The argument after `flag`, checked by `parse`.
    fn read<T>(
        &mut self,
        flag: &str,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        let value = self.args.next().map(String::as_str);
        value
            .and_then(parse)
            .ok_or_else(|| format!("{flag} requires {what}"))
    }

    /// The argument after `flag`: a path, an id, anything present.
    fn value(&mut self, flag: &str, what: &str) -> Result<String, String> {
        self.read(flag, what, |v| Some(v.to_string()))
    }

    /// A number within `range`.
    fn number<T: FromStr + PartialOrd>(
        &mut self,
        flag: &str,
        what: &str,
        range: impl RangeBounds<T>,
    ) -> Result<T, String> {
        self.read(flag, what, |v| v.parse().ok().filter(|n| range.contains(n)))
    }

    /// A finite non-negative number of seconds.
    fn secs(&mut self, flag: &str, what: &str) -> Result<Duration, String> {
        self.read(flag, what, secs)
    }
}

fn secs(v: &str) -> Option<Duration> {
    Duration::try_from_secs_f64(v.parse().ok()?).ok()
}

/// `arg` as a positional argument; anything flag-shaped is unknown.
fn positional(arg: &str) -> Result<String, String> {
    if arg.starts_with('-') {
        Err(format!("unknown option '{arg}'"))
    } else {
        Ok(arg.to_string())
    }
}

fn unexpected(arg: &str) -> String {
    format!("unexpected argument '{arg}'")
}

/// The one positional file a subcommand takes; `what` names it.
fn one_file(files: Vec<String>, what: &str) -> Result<String, String> {
    match <[String; 1]>::try_from(files) {
        Ok([file]) => Ok(file),
        Err(files) if files.is_empty() => Err(format!("no {what} file given")),
        Err(_) => Err(format!("exactly one {what} file expected")),
    }
}

/// `path` with its `.` components dropped, so `x.opt` and `./x.opt`
/// compare equal.
fn file_key(path: &str) -> PathBuf {
    Path::new(path)
        .components()
        .filter(|c| *c != Component::CurDir)
        .collect()
}

/// Refuses an output that names the same file as another output or an
/// input, before any file is created or opened: the output would
/// truncate or interleave with the other. A verdict store (`--store`,
/// `--journal`, `--resume`) is a file family: it also writes `<store>.*`
/// siblings (lock, tmp, evicted generations, slowlog), and no other
/// output may name one of them.
fn distinct_paths(outputs: &[(&str, Option<&String>)], inputs: &[String]) -> Result<(), String> {
    let outputs: Vec<(&str, &String)> =
        outputs.iter().filter_map(|&(f, p)| Some((f, p?))).collect();
    let store = |flag: &str| matches!(flag, "--store" | "--journal" | "--resume");
    // Whether `sibling` is one of the `<family>.*` files.
    let in_family = |family: &str, sibling: &str| {
        let (f, s) = (file_key(family), file_key(sibling));
        s.to_string_lossy()
            .starts_with(&format!("{}.", f.to_string_lossy()))
    };
    for (i, &(flag, path)) in outputs.iter().enumerate() {
        for &(other, other_path) in &outputs[i + 1..] {
            let (family, member) = if store(flag) {
                (path, other_path)
            } else {
                (other_path, path)
            };
            if (store(flag) || store(other)) && in_family(family, member) {
                return Err(format!(
                    "{flag} and {other} point at the same file family ({member}); \
                     {family} also writes {family}.* — use distinct paths"
                ));
            }
        }
        let others = outputs[i + 1..].iter().copied();
        let inputs = inputs.iter().map(|p| ("an input", p));
        if let Some((other, _)) = others
            .chain(inputs)
            .find(|o| file_key(o.1) == file_key(path))
        {
            return Err(format!(
                "{flag} and {other} point at the same file ({path}); use distinct paths"
            ));
        }
    }
    Ok(())
}

/// Whether `path` begins with a sealed `alive-journal/v1` header: the
/// batch journal format the verdict store replaced. Opened as a store it
/// would be rotated away as unreadable, so the CLI refuses it instead.
fn retired_journal(path: &str) -> bool {
    let text = sealed::read(Path::new(path)).unwrap_or_default();
    sealed::unseal(sealed::first_line(&text))
        .is_some_and(|header| header.starts_with("{\"journal\":\"alive-journal/v1\""))
}

/// Names, one stderr line each, the verifier settings that differ
/// between this run (`current`) and an evicted store's header.
fn print_config_diff(current: &str, prior: Option<&str>) {
    match prior {
        Some(recorded) => {
            for (field, cur, rec) in fingerprint_diff(current, recorded) {
                eprintln!("  {field}: this run {cur}, store {rec}");
            }
        }
        None => eprintln!("  (the old header names no settings; cannot say which differ)"),
    }
}

/// The verifier flags `alive` and `alive serve` share. `--fast` and
/// `--exhaustive` are order-independent and mutually exclusive.
#[derive(Default)]
struct VerifierFlags {
    fast: bool,
    exhaustive: bool,
    timeout: Option<Duration>,
    budget: Option<u64>,
    retries: Option<u32>,
    trace: Option<String>,
    metrics: bool,
}

impl VerifierFlags {
    /// Consumes `flag` (and its value) if it is one of these.
    fn accept(&mut self, flag: &str, c: &mut Cursor) -> Result<bool, String> {
        match flag {
            "--fast" => self.fast = true,
            "--exhaustive" => self.exhaustive = true,
            "--timeout" => self.timeout = Some(c.secs(flag, "a non-negative number of seconds")?),
            "--budget" => self.budget = Some(c.number(flag, "a conflict count", ..)?),
            "--retries" => self.retries = Some(c.number(flag, "a count", ..)?),
            "--trace" => self.trace = Some(c.value(flag, "a file argument")?),
            "--metrics" => self.metrics = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn verify_config(&self) -> Result<VerifyConfig, String> {
        match (self.fast, self.exhaustive) {
            (true, true) => Err("--fast and --exhaustive contradict each other; pick one".into()),
            (true, false) => Ok(VerifyConfig::fast()),
            (false, true) => Ok(VerifyConfig {
                typeck: alive::TypeckConfig::exhaustive(),
                ..VerifyConfig::default()
            }),
            (false, false) => Ok(VerifyConfig::default()),
        }
    }

    /// The driver settings these flags select. The tracer rides inside
    /// the CEGIS config: one installation reaches the driver phases, the
    /// bit-blaster, and the SAT solver cores.
    fn driver(&self, verify: &VerifyConfig, tracer: &Tracer) -> DriverConfig {
        let mut verify = verify.clone();
        verify.ef.tracer = tracer.clone();
        let defaults = DriverConfig::default();
        DriverConfig {
            verify,
            timeout: self.timeout,
            conflict_budget: self.budget,
            max_retries: self.retries.unwrap_or(defaults.max_retries),
            ..defaults
        }
    }
}

/// The tracer a command runs under: a JSONL stream (`--trace`), the
/// live `alive stats` aggregator (`--metrics`), both behind one tee, or
/// the disabled tracer whose per-site cost is a single branch.
struct Tracing {
    tracer: Tracer,
    jsonl: Option<(String, Arc<JsonlSink>)>,
    stats: Option<Arc<StatsSink>>,
}

impl Tracing {
    /// `None` (after printing why) when the trace file cannot be created.
    fn open(trace: Option<&str>, metrics: bool) -> Option<Tracing> {
        let mut sinks: Vec<Box<dyn TraceSink>> = Vec::new();
        let jsonl = match trace {
            Some(path) => match JsonlSink::create(Path::new(path)) {
                Ok(s) => {
                    let s = Arc::new(s);
                    sinks.push(Box::new(Arc::clone(&s)));
                    Some((path.to_string(), s))
                }
                Err(e) => {
                    eprintln!("error: cannot create trace file {path}: {e}");
                    return None;
                }
            },
            None => None,
        };
        let stats = metrics.then(|| Arc::new(StatsSink::new()));
        if let Some(s) = &stats {
            sinks.push(Box::new(Arc::clone(s)));
        }
        let tracer = match sinks.len() {
            0 => Tracer::disabled(),
            1 => Tracer::new(sinks.pop().expect("one sink")),
            _ => Tracer::new(Box::new(TeeSink::new(sinks))),
        };
        Some(Tracing {
            tracer,
            jsonl,
            stats,
        })
    }

    /// Flushes explicitly — a worker the watchdog detached still holds a
    /// clone of the sink, so the Drop-based flush may never run in this
    /// process. Returns the `--metrics` table (what `alive stats` prints
    /// for the run's trace), if any, and whether every trace write landed
    /// and every span nested (warning on stderr if not).
    fn finish(&self) -> (Option<String>, bool) {
        self.tracer.flush();
        let mut intact = match &self.jsonl {
            Some((path, sink)) if sink.had_error() => {
                eprintln!("warning: trace writes failed; {path} is incomplete");
                false
            }
            _ => true,
        };
        let table = match self.stats.as_ref().map(|s| s.snapshot()) {
            Some(Ok(stats)) => Some(stats.render(TOP)),
            Some(Err(e)) => {
                eprintln!("warning: --metrics: {e}");
                intact = false;
                None
            }
            None => None,
        };
        (table, intact)
    }
}

/// Counts SIGINTs (and SIGTERMs); bridged to the command by a watcher
/// thread (a signal handler must only touch async-signal-safe state, so
/// it cannot call into the `Arc` machinery directly).
static SIGNALS: AtomicU32 = AtomicU32::new(0);

extern "C" fn on_signal(_signum: i32) {
    SIGNALS.fetch_add(1, Ordering::SeqCst);
}

/// Installs the counting handler for SIGINT, and for SIGTERM when
/// `also_sigterm`, via the C runtime (no libc crate needed). The first
/// signal prints `message[0]` and runs `on_first`; a second prints
/// `message[1]` and force-exits 130, so a hung solver cannot make the
/// signal appear dead.
fn watch_signals(
    also_sigterm: bool,
    message: [&'static str; 2],
    on_first: impl FnOnce() + Send + 'static,
) {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the C runtime's, called with valid signal
    // numbers; the handler only does an atomic add, which is
    // async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal);
        if also_sigterm {
            signal(SIGTERM, on_signal);
        }
    }
    std::thread::spawn(move || {
        let mut on_first = Some(on_first);
        loop {
            let n = SIGNALS.load(Ordering::SeqCst);
            if n >= 2 {
                eprintln!("{}", message[1]);
                std::process::exit(130);
            }
            if let Some(f) = on_first.take_if(|_| n >= 1) {
                eprintln!("{}", message[0]);
                f();
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    });
}

/// Reads and parses every file into one flat corpus; a transform without
/// a `Name:` is called `<file>#<k>`. Returns the corpus and the number of
/// files that could not be read or parsed (each reported on stderr).
fn read_transforms(files: &[String], tracer: &Tracer) -> (Vec<(String, Transform)>, usize) {
    let mut transforms = Vec::new();
    let mut failures = 0;
    for path in files {
        let _parse_span = tracer.span_with("parse", || path.clone());
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_transforms(&text).map_err(|e| e.to_string()));
        match parsed {
            Ok(ts) => transforms.extend(ts.into_iter().enumerate().map(|(i, t)| {
                let name = t
                    .name
                    .clone()
                    .unwrap_or_else(|| format!("{path}#{}", i + 1));
                (name, t)
            })),
            Err(e) => {
                eprintln!("{path}: {e}");
                failures += 1;
            }
        }
    }
    (transforms, failures)
}

/// Installs the fault plan named by `ALIVE_FAULT` and the crash plan
/// named by `ALIVE_CRASH_AT` (fault-injection builds only). Returns
/// `false` when either spec fails to parse — the library layer ignores a
/// malformed spec, so binaries validate it here where exit 64 is
/// possible.
#[cfg(feature = "fault-injection")]
fn install_fault_plan_from_env() -> bool {
    let fault_ok = match std::env::var("ALIVE_FAULT") {
        Ok(spec) if !spec.is_empty() => match alive::sat::fault::FailurePlan::parse(&spec) {
            Ok(plan) => {
                alive::sat::fault::install(Some(plan));
                true
            }
            Err(e) => {
                eprintln!("error: bad ALIVE_FAULT spec: {e}");
                false
            }
        },
        _ => true,
    };
    let crash_ok = match std::env::var("ALIVE_CRASH_AT") {
        Ok(spec) if !spec.is_empty() => {
            match alive_verifier::durable::crash::CrashPlan::parse(&spec) {
                Ok(plan) => {
                    alive_verifier::durable::crash::install(Some(plan));
                    true
                }
                Err(e) => {
                    eprintln!("error: bad ALIVE_CRASH_AT spec: {e}");
                    false
                }
            }
        }
        _ => true,
    };
    fault_ok && crash_ok
}

/// Budget escalation factor applied to stored `unknown`/`hung` verdicts
/// requeued by `--resume` (they already exhausted a budget once).
const RESUME_ESCALATION: u32 = 8;

/// The `alive stats <trace.jsonl>` subcommand: replay a trace offline and
/// print the per-phase breakdown (or folded stacks for flamegraph.pl).
///
/// The trace is loaded leniently: an empty file, a missing header, or a
/// torn tail (the traced process was killed mid-write) degrades to the
/// readable prefix plus a stderr warning rather than an error — the
/// percentages are then explicitly marked as partial by that warning. CI
/// schema validation keeps using the strict reader.
fn run_stats(c: &mut Cursor) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut top = TOP;
    let mut folded = false;
    let mut request: Option<String> = None;
    while let Some(arg) = c.next() {
        match arg {
            "--top" => top = c.number(arg, "a count of at least 1", 1..)?,
            "--folded" => folded = true,
            "--request" => request = Some(c.value(arg, "a request id")?),
            _ => files.push(positional(arg)?),
        }
    }
    let file = one_file(files, "trace")?;
    let events = match read_trace_lenient(Path::new(&file)) {
        Ok(loaded) => {
            if let Some(w) = &loaded.warning {
                eprintln!("warning: {file}: {w}");
            }
            loaded.events
        }
        Err(e) => {
            eprintln!("error: {file}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    // --request carves out one request's span subtree (a serve.request
    // span tagged with the id) before aggregating, so the phase table
    // is that request's own breakdown.
    let stats = match &request {
        Some(rid) => match TraceStats::for_request(&events, rid) {
            Ok(Some(s)) => {
                eprintln!("request {rid}:");
                s
            }
            Ok(None) => {
                eprintln!("error: {file}: no serve.request span with id '{rid}'");
                return Ok(ExitCode::FAILURE);
            }
            Err(e) => {
                eprintln!("error: {file}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        },
        None => match TraceStats::from_events(&events) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {file}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        },
    };
    if folded {
        print!("{}", stats.folded_output());
    } else {
        print!("{}", stats.render(top));
    }
    Ok(ExitCode::SUCCESS)
}

/// The `alive fuzz` subcommand: generate seeded random transforms, verify
/// them, audit every verdict with the paranoid oracle, shrink failures,
/// and persist reproducers. `--replay <dir>` re-runs a checked-in corpus
/// as a regression suite instead of generating fresh cases.
fn run_fuzz_cmd(c: &mut Cursor) -> Result<ExitCode, String> {
    let mut cfg = FuzzConfig {
        cases: 500,
        ..FuzzConfig::default()
    };
    let mut replay: Option<String> = None;
    let mut trace_path: Option<String> = None;
    while let Some(arg) = c.next() {
        match arg {
            "--seed" => cfg.seed = c.number(arg, "an integer", ..)?,
            "--cases" => cfg.cases = c.number(arg, "a count", ..)?,
            "--max-width" => cfg.gen.max_width = c.number(arg, "a bitwidth in 1..=64", 1..=64)?,
            "--max-insts" => cfg.gen.max_insts = c.number(arg, "a count of at least 1", 1..)?,
            "--jobs" => cfg.jobs = c.number(arg, "a worker count of at least 1", 1..)?,
            "--timeout" => cfg.timeout = Some(c.secs(arg, "a non-negative number of seconds")?),
            "--budget" => cfg.conflict_budget = Some(c.number(arg, "a conflict count", ..)?),
            "--corpus" => cfg.corpus_dir = Some(c.value(arg, "a directory argument")?.into()),
            "--replay" => replay = Some(c.value(arg, "a corpus directory argument")?),
            "--no-minimize" => cfg.minimize = false,
            "--trace" => trace_path = Some(c.value(arg, "a file argument")?),
            _ => return Err(unexpected(arg)),
        }
    }
    #[cfg(feature = "fault-injection")]
    if !install_fault_plan_from_env() {
        return Ok(ExitCode::from(64));
    }
    let Some(tracing) = Tracing::open(trace_path.as_deref(), false) else {
        return Ok(ExitCode::FAILURE);
    };
    let report = if let Some(dir) = &replay {
        match replay_corpus(Path::new(dir), &cfg, &tracing.tracer) {
            Ok(r) => {
                println!("replay: {} reproducer(s) from {dir}", r.cases);
                r
            }
            Err(e) => {
                eprintln!("error: {dir}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    } else {
        println!(
            "fuzz: seed {}, {} cases, widths 1..={}, jobs {}",
            cfg.seed, cfg.cases, cfg.gen.max_width, cfg.jobs
        );
        run_fuzz(&cfg, &tracing.tracer)
    };
    for f in &report.failures {
        println!("----------------------------------------");
        println!(
            "FAILURE {} (case {}): {}",
            f.signature.slug(),
            f.index,
            f.detail
        );
        let repro = f.minimized.as_ref().unwrap_or(&f.transform);
        let text = repro.to_string();
        print!("{text}");
        if !text.ends_with('\n') {
            println!();
        }
        if f.shrink_steps > 0 {
            println!("(minimized in {} accepted shrink steps)", f.shrink_steps);
        }
        if let Some(p) = &f.saved {
            println!("reproducer saved: {}", p.display());
        }
    }
    println!("----------------------------------------");
    println!(
        "{} case(s): {} valid, {} invalid, {} unknown, {} errors, {} failure signature(s)",
        report.cases,
        report.valid,
        report.invalid,
        report.unknown,
        report.errors,
        report.failures.len(),
    );
    println!(
        "paranoid: {} concrete point(s) checked, {} audit(s) skipped",
        report.points_checked, report.audits_skipped
    );
    println!(
        "digest: {:016x} ({:.1}s)",
        report.digest,
        report.wall.as_secs_f64()
    );
    if !tracing.finish().1 {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::from(report.exit_code()))
}

/// The `alive hash` subcommand: print each transform's canonical content
/// hash — the identity the serve cache and `--dedupe` key on. Alpha
/// renamings and commuted commutative operands print the same hash.
fn run_hash(c: &mut Cursor) -> Result<ExitCode, String> {
    let files = c.positionals()?;
    if files.is_empty() {
        return Err("no input files".into());
    }
    let (transforms, failures) = read_transforms(&files, &Tracer::disabled());
    let mut out = std::io::stdout().lock();
    let written = transforms
        .iter()
        .try_for_each(|(name, t)| writeln!(out, "{:016x}  {name}", canonical_hash(t)))
        .and_then(|()| out.flush());
    match written {
        // A reader that stops early (`alive hash ... | head`) is done, not
        // failed. SIGPIPE stays ignored process-wide so that `alive serve`
        // survives a client that disconnects.
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => return Ok(ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("error: writing hashes: {e}");
            return Ok(ExitCode::FAILURE);
        }
        Ok(()) => {}
    }
    Ok(if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The `alive serve` subcommand: a verification daemon with a persistent
/// content-addressed verdict cache. All diagnostics go to stderr — in
/// `--stdio` mode stdout is the protocol channel.
fn run_serve(c: &mut Cursor) -> Result<ExitCode, String> {
    let mut flags = VerifierFlags::default();
    let mut store = "alive-store.jsonl".to_string();
    let mut socket: Option<String> = None;
    let mut stdio = false;
    let mut epoch = 0u64;
    let mut workers = 0usize;
    let mut cert_dir: Option<String> = None;
    let mut slow_ms: Option<u64> = None;
    let mut limits = ServeLimits::default();
    while let Some(arg) = c.next() {
        if flags.accept(arg, c)? {
            continue;
        }
        let seconds = "a non-negative number of seconds";
        match arg {
            "--store" => store = c.value(arg, "a file argument")?,
            "--socket" => socket = Some(c.value(arg, "a path argument")?),
            "--stdio" => stdio = true,
            "--epoch" => epoch = c.number(arg, "an integer", ..)?,
            "--workers" => workers = c.number(arg, "a count", ..)?,
            "--cert-dir" => cert_dir = Some(c.value(arg, "a directory argument")?),
            "--slow-ms" => {
                let what = "a millisecond threshold (0 logs every miss)";
                slow_ms = Some(c.number(arg, what, ..)?);
            }
            "--max-connections" => {
                limits.max_connections = c.number(arg, "a count (0 = off)", ..)?
            }
            "--queue-depth" => limits.queue_depth = c.number(arg, "a count (0 = off)", ..)?,
            "--request-timeout" => {
                let d = c.secs(arg, &format!("{seconds} (0 = off)"))?;
                limits.request_timeout = Some(d).filter(|d| !d.is_zero());
            }
            "--idle-timeout" => {
                limits.idle_timeout = c.secs(arg, &format!("{seconds} (0 = off)"))?
            }
            "--drain-timeout" => limits.drain_timeout = c.secs(arg, seconds)?,
            _ => return Err(unexpected(arg)),
        }
    }
    let verify_config = flags.verify_config()?;
    if stdio && socket.is_some() {
        return Err("--stdio and --socket are alternative transports; pick one".into());
    }
    // stdio is the portable default.
    let stdio = stdio || socket.is_none();
    distinct_paths(
        &[("--store", Some(&store)), ("--trace", flags.trace.as_ref())],
        &[],
    )?;

    // The daemon honours ALIVE_FAULT too: `store:*` and `serve:*` sites
    // live on this side of the wire.
    #[cfg(feature = "fault-injection")]
    if !install_fault_plan_from_env() {
        return Ok(ExitCode::from(64));
    }
    let Some(tracing) = Tracing::open(flags.trace.as_deref(), flags.metrics) else {
        return Ok(ExitCode::FAILURE);
    };
    let config = ServeConfig {
        driver: DriverConfig {
            with_certificates: cert_dir.is_some(),
            ..flags.driver(&verify_config, &tracing.tracer)
        },
        store_path: store.clone().into(),
        epoch,
        workers,
        cert_dir: cert_dir.map(Into::into),
        tracer: tracing.tracer.clone(),
        limits,
        slow_ms,
    };
    let (server, how) = match Server::open(config) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: cannot open verdict store {store}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    match how {
        StoreOpen::Created => eprintln!("serve: fresh store {store} (epoch {epoch})"),
        StoreOpen::Loaded { records, discarded } => {
            eprintln!("serve: loaded {records} cached verdict(s) from {store}");
            if discarded > 0 {
                eprintln!("serve: discarded {discarded} torn/corrupt store line(s)");
            }
        }
        StoreOpen::Evicted {
            prior_config,
            prior_epoch,
            prior_desc,
        } => {
            eprintln!(
                "serve: evicted stale store (was config {prior_config:016x}, epoch \
                 {prior_epoch}); rotated to {store}.evicted.{prior_epoch}"
            );
            print_config_diff(&config_description(&verify_config), prior_desc.as_deref());
        }
    }
    if let Some(c) = server.compaction() {
        eprintln!(
            "serve: compacted store: {} record(s) replayed, {} live, {} dead \
             dropped ({} -> {} bytes)",
            c.replayed, c.live, c.dropped, c.bytes_before, c.bytes_after
        );
    }

    {
        let l = server.limits();
        let fmt_count = |n: usize| -> String {
            if n == 0 {
                "unlimited".to_string()
            } else {
                n.to_string()
            }
        };
        let fmt_secs = |d: Duration| -> String {
            if d.is_zero() {
                "off".to_string()
            } else {
                format!("{}s", d.as_secs_f64())
            }
        };
        eprintln!(
            "serve: limits: {} connection(s), queue depth {}, request timeout {}, \
             idle timeout {}, drain timeout {}",
            fmt_count(l.max_connections),
            fmt_count(l.queue_depth),
            l.request_timeout.map_or("off".to_string(), fmt_secs),
            fmt_secs(l.idle_timeout),
            fmt_secs(l.drain_timeout),
        );
        let tel = server.telemetry();
        eprintln!(
            "serve: telemetry: {}s sliding window; slow-query log {}",
            tel.window_ms / 1_000,
            match slow_ms {
                Some(ms) => format!("{store}.slowlog (threshold {ms} ms)"),
                None => "off".to_string(),
            }
        );
    }

    // First SIGINT/SIGTERM begins the drain: stop accepting, finish (or
    // cancel) in-flight work, close the socket. A second signal while the
    // drain runs force-exits — a hung solver cannot wedge shutdown.
    let watched = server.clone();
    watch_signals(
        true,
        [
            "signal: draining connections (again to force exit)",
            "second signal: exiting immediately",
        ],
        move || watched.begin_stop(),
    );

    let served = if stdio {
        serve_stdio(&server)
    } else {
        #[cfg(unix)]
        {
            let path = socket.expect("socket transport implies a path");
            eprintln!("serve: listening on {path}");
            alive::serve::serve_unix(&server, Path::new(&path))
        }
        #[cfg(not(unix))]
        {
            eprintln!("error: --socket requires a unix platform; use --stdio");
            return Ok(ExitCode::from(64));
        }
    };
    let s = server.stats();
    eprintln!(
        "serve: {} hit(s), {} miss(es), {} join(s), {} error(s), {} stored",
        s.hits, s.misses, s.joins, s.errors, s.stored
    );
    eprintln!(
        "serve: {} busy refusal(s), {} shed connection(s), {} idle close(s); \
         up {:.1}s",
        s.busy,
        s.shed,
        s.idle_closed,
        s.uptime_ms as f64 / 1000.0
    );
    {
        let tel = server.telemetry();
        let fmt = |series: &alive::trace::SeriesSnapshot| -> String {
            if series.count == 0 {
                "none".to_string()
            } else {
                format!(
                    "p50 {}µs p90 {}µs p99 {}µs max {}µs (n={})",
                    series.p50_us, series.p90_us, series.p99_us, series.max_us, series.count
                )
            }
        };
        eprintln!("serve: hit latency: {}", fmt(&tel.hit));
        eprintln!("serve: miss latency: {}", fmt(&tel.miss));
        if tel.join.count > 0 {
            eprintln!("serve: join latency: {}", fmt(&tel.join));
        }
    }
    let (metrics, intact) = tracing.finish();
    if let Some(table) = metrics {
        eprint!("{table}");
    }
    if let Err(e) = &served {
        eprintln!("error: serve transport failed: {e}");
    }
    Ok(if intact && served.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The `alive scrub` subcommand: offline salvage of a corrupted verdict
/// store. Corrupt lines are quarantined, never discarded; the intact
/// records are rewritten as a fresh sealed store the daemon will load.
fn run_scrub(c: &mut Cursor) -> Result<ExitCode, String> {
    let path = one_file(c.positionals()?, "store")?;
    Ok(match scrub_store(Path::new(&path)) {
        Ok(report) => {
            println!(
                "scrub: {path}: {} record line(s) examined (config {:016x}, epoch {})",
                report.examined, report.fingerprint, report.epoch
            );
            println!(
                "scrub: {} salvaged ({} distinct transform(s)), {} quarantined",
                report.salvaged, report.distinct, report.quarantined
            );
            match report.quarantine {
                Some(q) => println!("scrub: corrupt lines preserved in {}", q.display()),
                None => println!("scrub: store was already clean; left untouched"),
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot scrub {path}: {e}");
            ExitCode::FAILURE
        }
    })
}

/// The `alive compact` subcommand: offline rewrite of a verdict store
/// keeping only the live record per canonical form. Refuses a store held
/// by a live daemon (the daemon compacts its own store at open).
fn run_compact(c: &mut Cursor) -> Result<ExitCode, String> {
    let path = one_file(c.positionals()?, "store")?;
    Ok(match compact_store(Path::new(&path)) {
        Ok(report) => {
            println!(
                "compact: {path}: {} record(s) replayed (config {:016x}, epoch {})",
                report.replayed, report.fingerprint, report.epoch
            );
            if report.dropped == 0 {
                println!("compact: nothing dead; store left untouched");
            } else {
                println!(
                    "compact: kept {} live record(s), dropped {} superseded \
                     ({} -> {} bytes)",
                    report.live, report.dropped, report.bytes_before, report.bytes_after
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot compact {path}: {e}");
            ExitCode::FAILURE
        }
    })
}

/// The `alive client` subcommand: submit `.opt` files to a running serve
/// daemon over its unix socket, retrying through `busy` refusals and
/// daemon restarts with jittered exponential backoff.
///
/// Exit codes follow the verify path (`0` valid, `1` invalid/error, `2`
/// inconclusive) plus `69` when the daemon stayed unavailable through
/// every retry.
#[cfg(unix)]
fn run_client(c: &mut Cursor) -> Result<ExitCode, String> {
    use alive::serve::client::{Client, ClientConfig, ClientError};
    let mut config = ClientConfig::default();
    let mut socket: Option<String> = None;
    let mut trace_requests = false;
    let mut files = Vec::new();
    while let Some(arg) = c.next() {
        match arg {
            "--socket" => socket = Some(c.value(arg, "a path argument")?),
            "--trace-requests" => trace_requests = true,
            "--max-retries" => config.max_retries = c.number(arg, "a count", ..)?,
            "--seed" => config.seed = c.number(arg, "an integer", ..)?,
            _ => files.push(positional(arg)?),
        }
    }
    let Some(socket) = socket else {
        return Err("--socket is required".into());
    };
    if files.is_empty() {
        return Err("no input files".into());
    }
    config.socket = socket.into();
    let mut client = Client::new(config);
    let mut invalid = 0usize;
    let mut inconclusive = 0usize;
    let mut errors = 0usize;
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                errors += 1;
                continue;
            }
        };
        match client.batch(&text) {
            Ok(verdicts) => {
                for v in verdicts {
                    println!(
                        "{}  {}  {}{}{}",
                        v.hash,
                        v.verdict,
                        v.name,
                        if v.cached { " [cached]" } else { "" },
                        if v.coalesced { " [coalesced]" } else { "" },
                    );
                    if trace_requests {
                        // Server-side timing block, keyed by the request
                        // id traceable in the daemon's --trace file.
                        println!(
                            "    rid {}: wall {}µs = canon {}µs + lookup {}µs + queue {}µs \
                             + verify {}µs",
                            v.rid, v.wall_us, v.canon_us, v.lookup_us, v.queue_us, v.verify_us
                        );
                    }
                    if !v.reason.is_empty() && v.verdict != "valid" {
                        for line in v.reason.lines() {
                            println!("    {line}");
                        }
                    }
                    match v.verdict.as_str() {
                        "valid" => {}
                        "invalid" => invalid += 1,
                        "unknown" | "hung" => inconclusive += 1,
                        _ => errors += 1,
                    }
                }
            }
            Err(ClientError::Request(m)) => {
                eprintln!("{path}: {m}");
                errors += 1;
            }
            Err(ClientError::Unavailable(m)) => {
                eprintln!(
                    "error: {m} ({} retry(ies), {} busy refusal(s))",
                    client.retries(),
                    client.busy_seen()
                );
                return Ok(ExitCode::from(69));
            }
        }
    }
    eprintln!(
        "client: {} attempt(s), {} retry(ies), {} busy refusal(s), {} ms backing off",
        client.attempts(),
        client.retries(),
        client.busy_seen(),
        client.backoff_total_ms()
    );
    Ok(if invalid > 0 || errors > 0 {
        ExitCode::FAILURE
    } else if inconclusive > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(not(unix))]
fn run_client(_c: &mut Cursor) -> Result<ExitCode, String> {
    eprintln!("error: alive client needs unix sockets; use `alive serve --stdio` instead");
    Ok(ExitCode::from(64))
}

/// The `alive slowlog` subcommand: read a daemon's slow-query log and
/// rank the worst offenders (per canonical hash, slowest verification
/// first). Torn tail records are skipped with a warning, not fatal —
/// the log is appended by a live daemon.
fn run_slowlog(c: &mut Cursor) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut top = 10usize;
    while let Some(arg) = c.next() {
        match arg {
            "--top" => top = c.number(arg, "a count of at least 1", 1..)?,
            _ => files.push(positional(arg)?),
        }
    }
    let file = one_file(files, "slowlog")?;
    let (records, skipped) = match alive::serve::slowlog::read_slowlog(Path::new(&file)) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: {file}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    if skipped > 0 {
        eprintln!("warning: {file}: {skipped} torn/corrupt record(s) skipped");
    }
    if records.is_empty() {
        println!("slowlog: no records");
        return Ok(ExitCode::SUCCESS);
    }
    let offenders = alive::serve::slowlog::rank(&records);
    println!(
        "{} slow verification(s) across {} distinct transform(s)",
        records.len(),
        offenders.len()
    );
    println!(
        "{:<16}  {:>5}  {:>8}  {:>9}  {:>9}  {:<8}  name",
        "hash", "count", "max ms", "total ms", "conflicts", "verdict"
    );
    for o in offenders.iter().take(top) {
        println!(
            "{:<16}  {:>5}  {:>8}  {:>9}  {:>9}  {:<8}  {}",
            o.hash, o.count, o.max_ms, o.total_ms, o.conflicts, o.verdict, o.name
        );
    }
    if offenders.len() > top {
        println!("... and {} more (raise --top)", offenders.len() - top);
    }
    Ok(ExitCode::SUCCESS)
}

/// The `alive top` subcommand: a live operator view over a daemon's
/// `stats` wire op — lifetime counters, windowed rates, and latency
/// percentiles, refreshed in place until interrupted.
#[cfg(unix)]
fn run_top(c: &mut Cursor) -> Result<ExitCode, String> {
    use alive::serve::client::{Client, ClientConfig};
    use std::io::IsTerminal;
    let mut socket: Option<String> = None;
    let mut interval = Duration::from_secs(2);
    let mut count = 0u64; // 0 = until interrupted
    while let Some(arg) = c.next() {
        match arg {
            "--socket" => socket = Some(c.value(arg, "a path argument")?),
            "--interval" => {
                let positive = |v: &str| secs(v).filter(|d| !d.is_zero());
                interval = c.read(arg, "a positive number of seconds", positive)?;
            }
            "--count" => count = c.number(arg, "an integer (0 = forever)", ..)?,
            _ => return Err(unexpected(arg)),
        }
    }
    let Some(socket) = socket else {
        return Err("--socket is required".into());
    };
    let mut client = Client::new(ClientConfig {
        socket: socket.clone().into(),
        max_retries: 2,
        ..ClientConfig::default()
    });
    let live_screen = std::io::stdout().is_terminal() && count != 1;
    let mut prev: Option<(u64, std::time::Instant)> = None;
    let mut polls = 0u64;
    loop {
        let s = match client.stats() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return Ok(ExitCode::from(69));
            }
        };
        let now = std::time::Instant::now();
        let total = s.hits + s.misses + s.joins;
        // Poll-to-poll request rate; the first screen has no baseline.
        let rate = prev
            .map(|(before, t)| {
                total.saturating_sub(before) as f64 / now.duration_since(t).as_secs_f64().max(1e-9)
            })
            .unwrap_or(0.0);
        prev = Some((total, now));
        if live_screen {
            // Clear and home: a single-screen refresh, not a scroll.
            print!("\x1b[2J\x1b[H");
        }
        println!(
            "alive top — {socket} — proto {} — up {:.1}s",
            s.proto,
            s.uptime_ms as f64 / 1000.0
        );
        println!(
            "requests: {} hit(s), {} miss(es), {} join(s)  ({rate:.1}/s since last poll)",
            s.hits, s.misses, s.joins
        );
        println!(
            "overload: {} busy, {} shed, {} idle-closed, {} error(s); {} in flight, \
             {} connection(s)",
            s.busy, s.shed, s.idle_closed, s.errors, s.inflight, s.connections
        );
        println!("store:    {} record(s)", s.stored);
        match &s.telemetry {
            Some(t) => {
                println!("latency µs (lifetime; window {}s):", t.window_ms / 1_000);
                println!(
                    "  {:<11} {:>8} {:>9} {:>9} {:>9} {:>9} {:>7} {:>10}",
                    "series", "count", "p50", "p90", "p99", "max", "in win", "win rate/s"
                );
                for (name, l) in [
                    ("hit", &t.hit),
                    ("miss", &t.miss),
                    ("join", &t.join),
                    ("queue_wait", &t.queue_wait),
                    ("canon", &t.canon),
                    ("append", &t.append),
                ] {
                    println!(
                        "  {:<11} {:>8} {:>9} {:>9} {:>9} {:>9} {:>7} {:>6}.{:03}",
                        name,
                        l.count,
                        l.p50_us,
                        l.p90_us,
                        l.p99_us,
                        l.max_us,
                        l.window,
                        l.rate_x1000 / 1000,
                        l.rate_x1000 % 1000
                    );
                }
            }
            None => println!("latency: daemon predates proto 2; no telemetry block"),
        }
        polls += 1;
        if count != 0 && polls >= count {
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(interval);
    }
}

#[cfg(not(unix))]
fn run_top(_c: &mut Cursor) -> Result<ExitCode, String> {
    eprintln!("error: alive top needs unix sockets");
    Ok(ExitCode::from(64))
}

/// The default command: verify every transform in the given files.
fn run_verify(c: &mut Cursor) -> Result<ExitCode, String> {
    let mut flags = VerifierFlags::default();
    let (mut emit_cpp, mut infer, mut keep_going) = (false, false, false);
    let (mut paranoid, mut dedupe) = (false, false);
    let mut proof_dir: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut journal_path: Option<String> = None;
    let mut resume_path: Option<String> = None;
    let mut jobs = 1usize;
    let mut grace = Duration::from_secs(2);
    let mut files = Vec::new();
    while let Some(arg) = c.next() {
        if flags.accept(arg, c)? {
            continue;
        }
        match arg {
            "--cpp" => emit_cpp = true,
            "--infer" => infer = true,
            "--keep-going" => keep_going = true,
            "--paranoid" => paranoid = true,
            "--dedupe" => dedupe = true,
            "--proof" => proof_dir = Some(c.value(arg, "a directory argument")?),
            "--report" => report_path = Some(c.value(arg, "a file argument")?),
            "--journal" => journal_path = Some(c.value(arg, "a file argument")?),
            "--resume" => resume_path = Some(c.value(arg, "a journal file argument")?),
            "--grace" => grace = c.secs(arg, "a non-negative number of seconds")?,
            "--jobs" => jobs = c.number(arg, "a worker count of at least 1", 1..)?,
            _ => files.push(positional(arg)?),
        }
    }
    let verify_config = flags.verify_config()?;
    if resume_path.is_some() && journal_path.is_some() {
        return Err("--resume already names the journal; drop --journal".into());
    }
    if resume_path.is_some() && proof_dir.is_some() {
        return Err(
            "--proof needs live verification; certificates are not stored — \
                    re-run without --resume to produce them"
                .into(),
        );
    }
    if resume_path.is_some() && paranoid {
        return Err("--paranoid audits live verdicts; reused verdicts carry no \
                    certificates — re-run without --resume to audit them"
            .into());
    }
    distinct_paths(
        &[
            ("--trace", flags.trace.as_ref()),
            ("--report", report_path.as_ref()),
            ("--journal", journal_path.as_ref()),
            ("--resume", resume_path.as_ref()),
        ],
        &files,
    )?;
    if files.is_empty() {
        return Err("no input files (try --help)".into());
    }
    let store_path = resume_path.as_ref().or(journal_path.as_ref());
    if let Some(path) = store_path.filter(|p| retired_journal(p)) {
        return Err(format!(
            "{path} is an alive-journal/v1 file, a format this version no longer reads; \
             --journal and --resume now keep an alive-store/v1 verdict store — name a new file"
        ));
    }

    #[cfg(feature = "fault-injection")]
    if !install_fault_plan_from_env() {
        return Ok(ExitCode::from(64));
    }

    if let Some(dir) = &proof_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create proof directory {dir}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    }
    let Some(tracing) = Tracing::open(flags.trace.as_deref(), flags.metrics) else {
        return Ok(ExitCode::FAILURE);
    };
    let tracer = &tracing.tracer;
    let (mut transforms, parse_failures) = read_transforms(&files, tracer);

    // --dedupe: collapse transforms sharing a canonical form (alpha
    // renaming, commutative operand order). One representative is
    // verified; each duplicate reports the representative's verdict.
    let mut dup_names: Vec<Vec<String>> = Vec::new();
    let mut duplicates = 0usize;
    if dedupe {
        let mut rep_of: HashMap<String, usize> = HashMap::new();
        let mut kept: Vec<(String, Transform)> = Vec::new();
        for (name, t) in transforms.drain(..) {
            match rep_of.entry(canonical_text(&t)) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    dup_names[*e.get()].push(name);
                    duplicates += 1;
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(kept.len());
                    kept.push((name, t));
                    dup_names.push(Vec::new());
                }
            }
        }
        transforms = kept;
        println!(
            "dedupe: {} transform(s) collapse to {} canonical form(s)",
            transforms.len() + duplicates,
            transforms.len(),
        );
    }

    // Covers config assembly, store open and resume planning — closed
    // before the driver starts so its spans don't nest.
    let setup_span = tracer.span("setup");
    let driver = DriverConfig {
        keep_going,
        with_certificates: proof_dir.is_some() || paranoid,
        ..flags.driver(&verify_config, tracer)
    };
    let pool = PoolConfig { jobs, grace };

    // The verdict store, opened at epoch 0 like `alive serve --store`
    // without `--epoch`. It is keyed by canonical text, so renamed copies
    // of a transform share one verdict, and verdicts the daemon earned are
    // reused too.
    let mut preset: Vec<(usize, TransformOutcome)> = Vec::new();
    let mut tasks: Vec<TaskSpec> = (0..transforms.len()).map(TaskSpec::fresh).collect();
    let mut store: Option<(VerdictStore, Vec<String>)> = None;
    if let Some(path) = store_path {
        if resume_path.is_some() {
            // A missing store is a hard error, not a silent fresh start.
            if let Err(e) = std::fs::metadata(path) {
                eprintln!("error: cannot read journal {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
        let desc = config_description(&verify_config);
        let opened = VerdictStore::open(
            Path::new(path),
            config_fingerprint(&verify_config),
            0,
            Some(&desc),
        );
        let (opened, how) = match opened {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("error: cannot open journal {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        match how {
            StoreOpen::Loaded { discarded, .. } if discarded > 0 => {
                eprintln!("warning: {path}: discarded {discarded} torn/corrupt journal line(s)")
            }
            StoreOpen::Evicted {
                prior_epoch,
                prior_desc,
                ..
            } => {
                eprintln!(
                    "warning: {path}: header is unreadable or names different verifier \
                     settings; rotated to {path}.evicted.{prior_epoch}, no verdicts will be \
                     reused"
                );
                print_config_diff(&desc, prior_desc.as_deref());
            }
            _ => {}
        }
        let canons: Vec<String> = transforms.iter().map(|(_, t)| canonical_text(t)).collect();
        if resume_path.is_some() {
            let plan = plan_resume(&opened, &canons);
            println!(
                "resume: {} verdict(s) reused, {} requeued at budget x{}, {} fresh",
                plan.reuse.len(),
                plan.requeue.len(),
                RESUME_ESCALATION,
                plan.fresh.len(),
            );
            preset = plan
                .reuse
                .iter()
                .map(|(i, rec)| (*i, rec.to_outcome(&transforms[*i].0)))
                .collect();
            let requeue = plan.requeue.into_iter().map(|index| TaskSpec {
                index,
                scale: RESUME_ESCALATION,
            });
            tasks = requeue
                .chain(plan.fresh.into_iter().map(TaskSpec::fresh))
                .collect();
            tasks.sort_by_key(|t| t.index);
        }
        store = Some((opened, canons));
    }

    // Ctrl-C → cooperative cancellation: the token is raised, every solver
    // winds down at its next budget poll, the pool drains, and the partial
    // report still gets written. A second Ctrl-C force-exits.
    let token = driver.cancel.clone();
    watch_signals(
        false,
        [
            "interrupt: draining workers (Ctrl-C again to force exit)",
            "second interrupt: exiting immediately",
        ],
        move || token.cancel(),
    );

    let mut aux_failures = 0usize;
    let mut store_errors = 0usize;
    let mut paranoid_disagreements = 0usize;
    let paranoid_cfg = OracleConfig::default();
    let mut used_slugs: HashMap<String, usize> = HashMap::new();
    drop(setup_span);
    let report = run_supervised(&transforms, tasks, preset, &driver, &pool, |i, outcome| {
        // Durable before it is shown or counted: the pool calls this
        // before the outcome enters the report.
        if let Some((store, canons)) = store.as_mut().filter(|_| !outcome.resumed) {
            let _span = tracer.span("store.append");
            let wall_ms = outcome.wall.as_millis() as u64;
            if store
                .insert(&canons[i], outcome.kind, &outcome.detail, wall_ms, "")
                .is_err()
            {
                store_errors += 1;
            }
        }
        println!("----------------------------------------");
        println!("Name: {}", outcome.name);
        match outcome.kind {
            OutcomeKind::Valid => {
                println!(
                    "{}{}",
                    outcome.detail,
                    if outcome.resumed {
                        " [resumed from journal]"
                    } else {
                        ""
                    }
                );
                if let Some(dir) = &proof_dir {
                    match persist_certificates(
                        dir,
                        &outcome.name,
                        &outcome.certificates,
                        &mut used_slugs,
                    ) {
                        Ok(n) => println!("{n} certificates written and re-checked"),
                        Err(e) => {
                            println!("certificate error: {e}");
                            aux_failures += 1;
                        }
                    }
                }
                let t = &transforms[i].1;
                if infer {
                    match infer_attributes(t, &verify_config) {
                        Ok(r) => {
                            if r.pre_weakened || r.post_strengthened {
                                println!("Optimal attributes:\n{}", r.inferred);
                            }
                        }
                        Err(e) => println!("(attribute inference: {e})"),
                    }
                }
                if emit_cpp {
                    match generate_cpp(t) {
                        Ok(cpp) => println!("{cpp}"),
                        Err(e) => println!("(codegen: {e})"),
                    }
                }
            }
            OutcomeKind::Invalid => println!("{}", outcome.detail),
            OutcomeKind::Unknown => {
                println!("Verification inconclusive: {}", outcome.detail)
            }
            OutcomeKind::Error => println!("error: {}", outcome.detail),
            OutcomeKind::Hung => println!("Hung: {}", outcome.detail),
        }
        if paranoid {
            let audit = paranoid_audit(
                &transforms[i].1,
                outcome.kind,
                &outcome.certificates,
                &verify_config,
                &paranoid_cfg,
            );
            if audit.is_clean() {
                if audit.points_checked > 0 {
                    println!(
                        "paranoid: agreed ({} concrete point(s) over {} typing(s))",
                        audit.points_checked, audit.typings_checked
                    );
                }
            } else {
                for d in &audit.disagreements {
                    println!("paranoid: DISAGREEMENT: {d}");
                }
                paranoid_disagreements += audit.disagreements.len();
            }
        }
        // --dedupe: every duplicate reports its representative's
        // verdict (they are the same transform up to renaming).
        for dup in dup_names.get(i).map_or(&[][..], Vec::as_slice) {
            println!("----------------------------------------");
            println!("Name: {dup}");
            let verdict = match outcome.kind {
                OutcomeKind::Valid | OutcomeKind::Invalid => outcome.detail.clone(),
                OutcomeKind::Unknown => {
                    format!("Verification inconclusive: {}", outcome.detail)
                }
                OutcomeKind::Error => format!("error: {}", outcome.detail),
                OutcomeKind::Hung => format!("Hung: {}", outcome.detail),
            };
            println!(
                "{verdict} [deduped: canonically identical to {}]",
                outcome.name
            );
        }
    });

    println!("----------------------------------------");
    println!(
        "{} valid, {} invalid, {} unknown, {} errors{}{}{}",
        report.count(OutcomeKind::Valid),
        report.count(OutcomeKind::Invalid),
        report.count(OutcomeKind::Unknown),
        report.count(OutcomeKind::Error),
        match report.count(OutcomeKind::Hung) {
            0 => String::new(),
            n => format!(", {n} hung"),
        },
        if report.skipped > 0 {
            format!(", {} skipped", report.skipped)
        } else {
            String::new()
        },
        if report.cancelled {
            " (interrupted)"
        } else {
            ""
        },
    );
    if duplicates > 0 {
        println!(
            "dedupe: {duplicates} duplicate(s) answered by their canonical \
             representative's verdict"
        );
    }
    if paranoid_disagreements > 0 {
        eprintln!(
            "error: paranoid mode found {paranoid_disagreements} disagreement(s) \
             between the verifier and the differential oracle"
        );
        aux_failures += 1;
    }
    if store_errors > 0 {
        eprintln!(
            "warning: {store_errors} journal append(s) failed; --resume would re-verify them"
        );
        aux_failures += 1;
    }

    let (metrics, intact) = tracing.finish();
    if !intact {
        aux_failures += 1;
    }
    if let Some(table) = metrics {
        println!();
        print!("{table}");
    }

    if let Some(path) = &report_path {
        if let Err(e) = write_report(path, &report) {
            eprintln!("error: cannot write report {path}: {e}");
            aux_failures += 1;
        }
    }

    let mut code = report.exit_code();
    if code != 130 && (parse_failures > 0 || aux_failures > 0) {
        code = 1;
    }
    Ok(ExitCode::from(code as u8))
}

fn write_report(path: &str, report: &RunReport) -> std::io::Result<()> {
    std::fs::write(path, report.to_json())
}

/// Writes each certificate to `<dir>/<slug>.<k>.cert`, then reads every
/// file back and runs the independent checker on the parsed result, so
/// what lands on disk — not the in-memory copy — is what gets trusted.
///
/// Distinct transform names can collapse to one slug (`A:B` and `A_B` both
/// become `A_B`); `used_slugs` disambiguates repeats with a numeric suffix
/// so no transform's certificates overwrite another's.
fn persist_certificates(
    dir: &str,
    transform_name: &str,
    certs: &[Certificate],
    used_slugs: &mut HashMap<String, usize>,
) -> Result<usize, String> {
    let base: String = transform_name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let n = used_slugs.entry(base.clone()).or_insert(0);
    *n += 1;
    let slug = if *n == 1 {
        base
    } else {
        format!("{base}__{n}")
    };
    for (k, cert) in certs.iter().enumerate() {
        let file = Path::new(dir).join(format!("{slug}.{k}.cert"));
        std::fs::write(&file, cert.to_text()).map_err(|e| format!("{}: {e}", file.display()))?;
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let parsed =
            Certificate::parse(&text).map_err(|e| format!("{}: parse: {e}", file.display()))?;
        parsed
            .check()
            .map_err(|e| format!("{}: check: {e}", file.display()))?;
    }
    Ok(certs.len())
}
