//! `alive_bench` — the seeded verifier benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml --bin alive_bench -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--traced] [--out FILE]
//! cargo run ... --bin alive_bench -- compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]
//! ```
//!
//! One closed-loop client on one thread drives four workloads:
//!
//! * `corpus-muldiv` — the 55 corpus transforms using mul/div/rem, where
//!   SAT search over multiplier and divider circuits blocks;
//! * `corpus-nomuldiv` — the other 169, many small queries where per-query
//!   set-up weighs most;
//! * `gen-undef` — 2,000 generated transforms full of `undef`: CEGIS,
//!   counterexamples, and certificates re-checked by `alive-proof`;
//! * `serve-replay` — 10,000 requests to an in-process server on a fresh
//!   store, four in five of them resubmissions answered from the cache.
//!
//! With `--trace 0` a run reports the end-to-end metrics `setup_s`,
//! `verdicts_per_s`, `verdict_p50_ms`, `verdict_tail_ms`, `decided_share`
//! and `peak_rss_mb`. With `--trace 1` it adds one traced round and reports
//! the per-layer metrics instead. Each metric prints as
//! `workload metric value unit`, and the last line is the result object.
//! The exit code is non-zero when any verdict was wrong. `README.md` next to
//! this package defines every metric and records the baseline run sets and
//! the traced per-layer table.

use alive_perfbench::compare::{compare, read_benchmark, read_records, render, Call};
use alive_perfbench::{run_workload, Params, RunResult, Workload};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage: alive_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--traced]
                   [--out FILE]
       alive_bench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]

Without --workload every workload runs, each in a child process of its own.
--traced adds one traced run per workload. --out appends one record per run.";

/// Exit code for a malformed command line.
const USAGE_ERROR: u8 = 64;
/// Measured seconds per run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 25.0;
/// Where the serve workload keeps its store, under the working directory.
const SCRATCH: &str = ".bench_build/alive_bench";

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => o.traced = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }
    let options = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("alive_bench: {e}\n{USAGE}");
            return ExitCode::from(USAGE_ERROR);
        }
    };
    match options.workload {
        Some(w) => run_one(w, &options),
        None => run_all(&options),
    }
}

/// Runs one workload in this process. The last line of standard output
/// is the result object; the exit code is 0 only when every verdict was
/// right.
fn run_one(w: Workload, o: &Options) -> ExitCode {
    let params = Params {
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        size: None,
        scratch: PathBuf::from(SCRATCH),
    };
    let result = match run_workload(w, &params) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("alive_bench: {}: {e}", w.name());
            return ExitCode::from(2);
        }
    };
    print_result(&result);
    if let Some(path) = &o.out {
        if let Err(e) = append_record(path, &result) {
            eprintln!("alive_bench: cannot append to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_result(r: &RunResult) {
    for note in &r.notes {
        println!("# {note}");
    }
    for f in &r.failures {
        eprintln!("FAILED {}: {f}", r.workload.name());
    }
    for m in &r.metrics {
        println!("{} {} {} {}", r.workload.name(), m.name, m.value, m.unit);
    }
    println!("{}", r.summary_json());
}

fn append_record(path: &PathBuf, r: &RunResult) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", r.record_json())?;
    f.sync_all()
}

/// Runs every workload (and, with `--traced`, its traced run) in a child
/// process of its own, so each reports its own peak memory, and relays
/// their output. Fails if any child fails.
fn run_all(o: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("alive_bench: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    let traces: &[&str] = if o.traced { &["0", "1"] } else { &["0"] };
    for w in Workload::ALL {
        for trace in traces {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if let Some(out) = &o.out {
                cmd.arg("--out").arg(out);
            }
            match cmd.output() {
                Ok(child) => {
                    let text = String::from_utf8_lossy(&child.stdout);
                    // Relay the metric lines; the child's result object
                    // is repeated in the --out record.
                    for line in text.lines().filter(|l| !l.starts_with('{')) {
                        println!("{line}");
                    }
                    if !child.status.success() {
                        eprintln!(
                            "alive_bench: {} --trace {trace}: {}",
                            w.name(),
                            child.status
                        );
                        ok = false;
                    }
                }
                Err(e) => {
                    eprintln!("alive_bench: cannot run {}: {e}", exe.display());
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            match it.next() {
                Some(p) => benchmark = PathBuf::from(p),
                None => files.clear(),
            }
        } else {
            files.push(PathBuf::from(a));
        }
    }
    if files.len() != 2 {
        eprintln!("{USAGE}");
        return ExitCode::from(USAGE_ERROR);
    }
    let read = |p: &PathBuf| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let rows = (|| -> Result<_, String> {
        let (bounds, counts) = read_benchmark(&read(&benchmark)?)?;
        let a = read_records(&read(&files[0])?)?;
        let b = read_records(&read(&files[1])?)?;
        Ok(compare(&bounds, &counts, &a, &b))
    })();
    match rows {
        Ok(rows) => {
            print!("{}", render(&rows));
            if rows
                .iter()
                .any(|r| matches!(r.call, Call::Worse | Call::Differs))
            {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("alive_bench compare: {e}");
            ExitCode::from(2)
        }
    }
}
