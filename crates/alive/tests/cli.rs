//! Black-box tests of the `alive` binary: argument handling, exit codes,
//! the `--proof` certificate pipeline, the JSON run report, and the
//! robustness flags (`--timeout`, `--budget`, `--retries`, `--keep-going`).

use std::path::PathBuf;
use std::process::Command;

fn alive_bin() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_alive"));
    // Keep fault-injection builds hermetic even if the harness env leaks.
    cmd.env_remove("ALIVE_FAULT");
    cmd
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alive-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const GOOD: &str = "Name: not-add\n%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C-1, %x\n";
const BAD: &str = "Name: wrong\n%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C, %x\n";
/// Valid and cheap: no solver-bound work, so it verifies under any budget.
const EASY: &str = "Name: double-to-shl\n%r = add %x, %x\n=>\n%r = shl %x, 1\n";

/// Runs the binary and returns (exit code, stdout, stderr).
fn run(args: &[&str]) -> (i32, String, String) {
    let out = alive_bin().args(args).output().expect("spawn alive");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn valid_file_exits_zero() {
    let dir = temp_dir("ok");
    let f = dir.join("good.opt");
    std::fs::write(&f, GOOD).unwrap();
    let out = alive_bin().arg("--fast").arg(&f).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn refinement_failure_exits_one() {
    let dir = temp_dir("bad");
    let f = dir.join("bad.opt");
    std::fs::write(&f, BAD).unwrap();
    let out = alive_bin().arg("--fast").arg(&f).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = alive_bin().arg("--definitely-not-a-flag").output().unwrap();
    assert_eq!(out.status.code(), Some(64), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option"), "{err}");
}

#[test]
fn proof_flag_requires_argument() {
    let out = alive_bin().arg("--proof").output().unwrap();
    assert_eq!(out.status.code(), Some(64), "{out:?}");
}

#[test]
fn missing_input_is_a_usage_error() {
    let out = alive_bin().arg("--fast").output().unwrap();
    assert_eq!(out.status.code(), Some(64), "{out:?}");
}

#[test]
fn proof_flag_writes_checkable_certificates() {
    let dir = temp_dir("proof");
    let f = dir.join("good.opt");
    std::fs::write(&f, GOOD).unwrap();
    let proofs = dir.join("proofs");
    let out = alive_bin()
        .arg("--fast")
        .arg("--proof")
        .arg(&proofs)
        .arg(&f)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("certificates written and re-checked"),
        "{stdout}"
    );

    let mut certs = Vec::new();
    for entry in std::fs::read_dir(&proofs).unwrap() {
        let path = entry.unwrap().path();
        assert_eq!(path.extension().and_then(|e| e.to_str()), Some("cert"));
        certs.push(path);
    }
    // fast profile: 2 widths x 3 conditions.
    assert_eq!(certs.len(), 6, "{certs:?}");
    for path in certs {
        let text = std::fs::read_to_string(&path).unwrap();
        let cert = alive::Certificate::parse(&text).unwrap();
        cert.check().unwrap_or_else(|e| {
            panic!("{}: {e}", path.display());
        });
        assert_eq!(cert.meta.transform, "not-add");
    }
}

#[test]
fn colliding_certificate_slugs_do_not_overwrite_each_other() {
    // "A:B" and "A_B" both slug to "A_B"; the second must get a suffix.
    let dir = temp_dir("slugs");
    let f = dir.join("twins.opt");
    std::fs::write(
        &f,
        format!(
            "{}\n{}",
            EASY.replace("double-to-shl", "A:B"),
            EASY.replace("double-to-shl", "A_B")
        ),
    )
    .unwrap();
    let proofs = dir.join("proofs");
    let (code, stdout, _) = run(&[
        "--fast",
        "--proof",
        proofs.to_str().unwrap(),
        f.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}");
    let mut stems: Vec<String> = std::fs::read_dir(&proofs)
        .unwrap()
        .map(|e| {
            let name = e.unwrap().file_name().to_string_lossy().into_owned();
            name.split('.').next().unwrap().to_string()
        })
        .collect();
    stems.sort();
    stems.dedup();
    assert_eq!(
        stems,
        ["A_B", "A_B__2"],
        "one transform's certificates overwrote the other's"
    );
}

#[test]
fn contradictory_width_flags_are_rejected_in_either_order() {
    for args in [["--fast", "--exhaustive"], ["--exhaustive", "--fast"]] {
        let (code, _, stderr) = run(&[args[0], args[1], "x.opt"]);
        assert_eq!(code, 64, "{stderr}");
        assert!(stderr.contains("contradict"), "{stderr}");
    }
}

#[test]
fn malformed_numeric_flags_are_usage_errors() {
    let (code, _, _) = run(&["--timeout", "never", "x.opt"]);
    assert_eq!(code, 64);
    let (code, _, _) = run(&["--timeout", "-1", "x.opt"]);
    assert_eq!(code, 64);
    let (code, _, _) = run(&["--budget"]);
    assert_eq!(code, 64);
    let (code, _, _) = run(&["--retries", "many", "x.opt"]);
    assert_eq!(code, 64);
}

#[test]
fn supervision_flags_are_validated() {
    // --jobs wants a positive count.
    let (code, _, stderr) = run(&["--jobs", "0", "x.opt"]);
    assert_eq!(code, 64, "{stderr}");
    let (code, _, _) = run(&["--jobs", "many", "x.opt"]);
    assert_eq!(code, 64);
    let (code, _, _) = run(&["--jobs"]);
    assert_eq!(code, 64);
    // --grace wants a non-negative duration.
    let (code, _, _) = run(&["--grace", "-1", "x.opt"]);
    assert_eq!(code, 64);
    // --journal / --resume want a path.
    let (code, _, _) = run(&["--journal"]);
    assert_eq!(code, 64);
    let (code, _, _) = run(&["--resume"]);
    assert_eq!(code, 64);
    // --resume already names the journal.
    let (code, _, stderr) = run(&["--resume", "a.jsonl", "--journal", "b.jsonl", "x.opt"]);
    assert_eq!(code, 64, "{stderr}");
    assert!(stderr.contains("--resume already names"), "{stderr}");
    // Certificates require live verification.
    let (code, _, stderr) = run(&["--resume", "a.jsonl", "--proof", "certs", "x.opt"]);
    assert_eq!(code, 64, "{stderr}");
    assert!(stderr.contains("--proof"), "{stderr}");
    // Resuming from a journal that does not exist is a hard error, not a
    // silent fresh start.
    let dir = temp_dir("no-journal");
    let f = dir.join("good.opt");
    std::fs::write(&f, EASY).unwrap();
    let ghost = dir.join("ghost.jsonl");
    let (code, _, stderr) = run(&["--resume", ghost.to_str().unwrap(), f.to_str().unwrap()]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("cannot read journal"), "{stderr}");
}

#[test]
fn parallel_jobs_match_sequential_results() {
    let dir = temp_dir("jobs");
    let f = dir.join("mix.opt");
    let mut corpus = format!("{BAD}\n");
    for i in 0..6 {
        corpus.push_str(&EASY.replace("double-to-shl", &format!("easy-{i}")));
        corpus.push('\n');
    }
    std::fs::write(&f, corpus).unwrap();
    let (code1, stdout1, _) = run(&["--fast", "--keep-going", f.to_str().unwrap()]);
    let (code4, stdout4, _) = run(&["--fast", "--keep-going", "--jobs", "4", f.to_str().unwrap()]);
    assert_eq!(code1, 1, "{stdout1}");
    assert_eq!(code4, 1, "{stdout4}");
    assert!(stdout1.contains("6 valid, 1 invalid"), "{stdout1}");
    assert!(stdout4.contains("6 valid, 1 invalid"), "{stdout4}");
}

#[test]
fn journal_then_resume_reuses_every_verdict() {
    let dir = temp_dir("journal-resume");
    let f = dir.join("mix.opt");
    let mut corpus = format!("{BAD}\n{GOOD}\n");
    for i in 0..3 {
        corpus.push_str(&EASY.replace("double-to-shl", &format!("easy-{i}")));
        corpus.push('\n');
    }
    std::fs::write(&f, corpus).unwrap();
    let journal = dir.join("run.jsonl");
    let (code, stdout, _) = run(&[
        "--fast",
        "--keep-going",
        "--jobs",
        "2",
        "--journal",
        journal.to_str().unwrap(),
        f.to_str().unwrap(),
    ]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("4 valid, 1 invalid"), "{stdout}");
    let journal_after_run = std::fs::read_to_string(&journal).unwrap();

    // Resume over a complete journal re-verifies nothing and reaches the
    // same verdicts, flagged as resumed.
    let report = dir.join("report.json");
    let (code, stdout, _) = run(&[
        "--fast",
        "--keep-going",
        "--resume",
        journal.to_str().unwrap(),
        "--report",
        report.to_str().unwrap(),
        f.to_str().unwrap(),
    ]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("resume: 5 verdict(s) reused"), "{stdout}");
    assert!(stdout.contains("[resumed from journal]"), "{stdout}");
    assert!(stdout.contains("4 valid, 1 invalid"), "{stdout}");
    let json = std::fs::read_to_string(&report).unwrap();
    assert_eq!(json.matches("\"resumed\": true").count(), 5, "{json}");
    // Nothing was re-verified, so nothing new was journaled.
    assert_eq!(
        std::fs::read_to_string(&journal).unwrap(),
        journal_after_run,
        "resume must not re-append reused verdicts"
    );
}

#[test]
fn missing_file_exits_one() {
    let dir = temp_dir("missing");
    let ghost = dir.join("ghost.opt");
    let (code, _, stderr) = run(&[ghost.to_str().unwrap()]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("ghost.opt"), "{stderr}");
}

#[test]
fn without_keep_going_the_first_failure_skips_the_rest() {
    let dir = temp_dir("failfast");
    let f = dir.join("mix.opt");
    std::fs::write(&f, format!("{BAD}\n{EASY}")).unwrap();
    let (code, stdout, _) = run(&["--fast", f.to_str().unwrap()]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("1 skipped"), "{stdout}");

    let (code, stdout, _) = run(&["--fast", "--keep-going", f.to_str().unwrap()]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("1 valid, 1 invalid"), "{stdout}");
    assert!(!stdout.contains("skipped"), "{stdout}");
}

#[test]
fn expired_timeout_is_inconclusive_exit_two() {
    let dir = temp_dir("timeout");
    let f = dir.join("slow.opt");
    std::fs::write(&f, GOOD).unwrap();
    let (code, stdout, _) = run(&["--fast", "--timeout", "0", f.to_str().unwrap()]);
    assert_eq!(code, 2, "{stdout}");
    assert!(stdout.contains("deadline"), "{stdout}");
}

#[test]
fn tiny_budget_is_inconclusive_and_retries_escalate_out_of_it() {
    let dir = temp_dir("budget");
    let f = dir.join("slow.opt");
    std::fs::write(&f, GOOD).unwrap();
    let (code, stdout, _) = run(&[
        "--fast",
        "--budget",
        "2",
        "--retries",
        "0",
        f.to_str().unwrap(),
    ]);
    assert_eq!(code, 2, "{stdout}");
    assert!(stdout.contains("conflict budget exhausted"), "{stdout}");

    // With escalating retries (2 → 16 → 128 → 1024 conflicts) the same
    // query completes.
    let (code, stdout, _) = run(&[
        "--fast",
        "--budget",
        "2",
        "--retries",
        "3",
        f.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}");
}

#[test]
fn report_has_the_v3_schema_and_per_transform_entries() {
    let dir = temp_dir("report");
    let f = dir.join("mix.opt");
    std::fs::write(&f, format!("{EASY}\n{BAD}")).unwrap();
    let report = dir.join("report.json");
    let (code, _, _) = run(&[
        "--fast",
        "--keep-going",
        "--report",
        report.to_str().unwrap(),
        f.to_str().unwrap(),
    ]);
    assert_eq!(code, 1);
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"schema\": \"alive-report/v3\""), "{json}");
    for field in [
        "\"valid\": 1",
        "\"invalid\": 1",
        "\"unknown\": 0",
        "\"hung\": 0",
        "\"cancelled\": false",
        "\"name\": \"double-to-shl\"",
        "\"name\": \"wrong\"",
        "\"verdict\": \"valid\"",
        "\"verdict\": \"invalid\"",
        "\"wall_ms\"",
        "\"conflicts\"",
        "\"propagations\"",
        "\"decisions\"",
        "\"restarts\"",
        "\"ef_rounds\"",
        "\"phases\": {\"typeck_us\": ",
        "\"retries\"",
        "\"worker\"",
        "\"resumed\": false",
        "\"attempts\": [",
    ] {
        assert!(json.contains(field), "missing {field} in {json}");
    }
    // Well-formed at the bracket level (the report is hand-serialized).
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "{json}"
    );
    assert_eq!(
        json.matches('[').count(),
        json.matches(']').count(),
        "{json}"
    );
}

#[test]
fn trace_and_journal_must_be_distinct_files() {
    let (code, _, stderr) = run(&["--trace", "same.jsonl", "--journal", "same.jsonl", "x.opt"]);
    assert_eq!(code, 64, "{stderr}");
    assert!(stderr.contains("same file"), "{stderr}");
    let (code, _, stderr) = run(&["--trace", "same.jsonl", "--resume", "same.jsonl", "x.opt"]);
    assert_eq!(code, 64, "{stderr}");
    assert!(stderr.contains("same file"), "{stderr}");
    // Distinct paths are fine (the run itself fails later on the missing
    // input, not on flag validation).
    let dir = temp_dir("trace-distinct");
    let trace = dir.join("a.jsonl");
    let journal = dir.join("b.jsonl");
    let (code, _, stderr) = run(&[
        "--trace",
        trace.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
        "x.opt",
    ]);
    assert_ne!(code, 64, "{stderr}");
}

#[test]
fn trace_flag_requires_argument() {
    let (code, _, _) = run(&["--trace"]);
    assert_eq!(code, 64);
}

/// Golden-file check of the trace pipeline: a corpus run with `--trace`
/// yields a strictly-parseable `alive-trace/v1` file whose spans nest
/// correctly per worker, and whose per-phase self-times account for the
/// traced wall span (the `alive stats` percentages are trustworthy).
#[test]
fn trace_file_has_correctly_nesting_spans_and_consistent_phase_times() {
    use alive::trace::{read_trace, TraceStats};

    let dir = temp_dir("trace-golden");
    let f = dir.join("ten.opt");
    let mut corpus = format!("{GOOD}\n");
    for i in 0..9 {
        corpus.push_str(&EASY.replace("double-to-shl", &format!("easy-{i}")));
        corpus.push('\n');
    }
    std::fs::write(&f, corpus).unwrap();
    let trace = dir.join("run-trace.jsonl");
    let (code, stdout, _) = run(&[
        "--fast",
        "--keep-going",
        "--jobs",
        "2",
        "--trace",
        trace.to_str().unwrap(),
        f.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}");

    // Strict read: every line CRC-sealed and schema-valid.
    let events = read_trace(&trace).unwrap();
    assert!(!events.is_empty());
    // Replay validates nesting (every End matches the innermost Start of
    // its thread); a violation is an Err here.
    let stats = TraceStats::from_events(&events).unwrap();
    // No detached workers in a healthy run: every span closed.
    assert_eq!(stats.open_spans, 0);
    // One pool.task span per transform, each attributed by name.
    assert_eq!(stats.tasks.len(), 10, "{:?}", stats.tasks);
    assert!(stats.tasks.iter().any(|(n, _)| n == "not-add"));
    // The span taxonomy of a corpus run is present.
    for phase in ["parse", "typeck", "typing", "encode", "blast", "sat.solve"] {
        assert!(stats.phases.contains_key(phase), "missing {phase} span");
    }
    // Re-run sequentially: with one worker the per-phase self-times must
    // partition the traced interval — their sum accounts for (almost all
    // of) the first-to-last-event wall span. Scheduling gaps between spans
    // are the only slack, so 5% is generous. (With --jobs 2 the sum is
    // legitimately ~2x wall, so the partition check needs --jobs 1.) Forty
    // solver-bound transforms make the span a few hundred ms, so one
    // preemption of a few ms between spans stays well inside the slack.
    let forty = dir.join("forty.opt");
    let corpus: String = (0..40)
        .map(|i| GOOD.replace("not-add", &format!("not-add-{i}")) + "\n")
        .collect();
    std::fs::write(&forty, corpus).unwrap();
    let seq = dir.join("seq-trace.jsonl");
    let (code, stdout, _) = run(&[
        "--fast",
        "--keep-going",
        "--jobs",
        "1",
        "--trace",
        seq.to_str().unwrap(),
        forty.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}");
    let stats = TraceStats::from_events(&read_trace(&seq).unwrap()).unwrap();
    let self_sum = stats.total_self_us();
    assert!(self_sum <= stats.wall_us + 1);
    assert!(
        self_sum * 100 >= stats.wall_us * 95,
        "phase self-times ({self_sum}us) cover under 95% of the traced wall span ({}us)",
        stats.wall_us
    );
}

#[test]
fn stats_subcommand_renders_breakdown_and_folded_stacks() {
    let dir = temp_dir("stats-cmd");
    let f = dir.join("good.opt");
    std::fs::write(&f, GOOD).unwrap();
    let trace = dir.join("trace.jsonl");
    let (code, _, _) = run(&[
        "--fast",
        "--trace",
        trace.to_str().unwrap(),
        f.to_str().unwrap(),
    ]);
    assert_eq!(code, 0);

    let (code, stdout, _) = run(&["stats", trace.to_str().unwrap(), "--top", "3"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("phase"), "{stdout}");
    assert!(stdout.contains("sat.solve"), "{stdout}");
    assert!(stdout.contains("slowest transforms"), "{stdout}");
    assert!(stdout.contains("not-add"), "{stdout}");

    // Folded output: `stack;frames self_us` lines, flamegraph.pl's input.
    let (code, stdout, _) = run(&["stats", trace.to_str().unwrap(), "--folded"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("pool.task;typing"), "{stdout}");
    for line in stdout.lines() {
        let (stack, value) = line.rsplit_once(' ').expect(line);
        assert!(!stack.is_empty(), "{line}");
        value.parse::<u64>().expect(line);
    }

    // A corrupted trace is refused loudly, not averaged over.
    let mangled = dir.join("mangled.jsonl");
    let mut text = std::fs::read_to_string(&trace).unwrap();
    let mid = text.len() / 2;
    text.replace_range(mid..mid + 1, "~");
    std::fs::write(&mangled, text).unwrap();
    let (code, _, stderr) = run(&["stats", mangled.to_str().unwrap()]);
    assert_eq!(code, 1, "{stderr}");

    let (code, _, _) = run(&["stats"]);
    assert_eq!(code, 64);
}

/// `--metrics` and `alive stats` share one aggregator: the table a run
/// prints after its summary is byte-for-byte what `alive stats` prints
/// for that run's trace, even with two workers interleaving events.
#[test]
fn metrics_table_is_the_stats_table_of_the_same_run() {
    let dir = temp_dir("metrics-stats");
    let trace = dir.join("t.jsonl");
    let opts = concat!(env!("CARGO_MANIFEST_DIR"), "/../alive-suite/opts/");
    let (code, stdout, stderr) = run(&[
        "--fast",
        "--jobs",
        "2",
        "--trace",
        trace.to_str().unwrap(),
        "--metrics",
        &format!("{opts}addsub.opt"),
        &format!("{opts}shifts.opt"),
        &format!("{opts}select.opt"),
    ]);
    assert_eq!(code, 0, "{stderr}");
    let table = &stdout[stdout.find("\nphase ").expect("a --metrics table") + 1..];
    let (code, stats, stderr) = run(&["stats", trace.to_str().unwrap()]);
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(table, stats);
}

#[cfg(unix)]
#[test]
fn sigint_cancels_cooperatively_and_still_writes_the_report() {
    let dir = temp_dir("sigint");
    // Enough solver-bound work (widths 1..=64 per copy) that the run is
    // still going when the signal lands.
    let mut corpus = String::new();
    for i in 0..50 {
        corpus.push_str(&GOOD.replace("not-add", &format!("not-add-{i}")));
        corpus.push('\n');
    }
    let f = dir.join("big.opt");
    std::fs::write(&f, corpus).unwrap();
    let report = dir.join("report.json");
    let mut child = alive_bin()
        .args([
            "--exhaustive",
            "--keep-going",
            "--report",
            report.to_str().unwrap(),
            f.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(400));
    let _ = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status();
    let status = child.wait().unwrap();
    let code = status.code().unwrap_or(-1);
    if code == 130 {
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("\"cancelled\": true"), "{json}");
    } else {
        // The run may have finished before the signal landed on a fast
        // machine; then it must have completed normally.
        assert_eq!(code, 0, "unexpected exit code {code}");
    }
}

/// Satellite 2: an empty trace file must degrade to an empty (but
/// rendered) report plus a stderr warning, not an error.
#[test]
fn stats_on_empty_trace_degrades_gracefully() {
    let dir = temp_dir("stats-empty");
    let f = dir.join("empty.jsonl");
    std::fs::write(&f, "").unwrap();
    let (code, stdout, stderr) = run(&["stats", f.to_str().unwrap()]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stderr.contains("empty"), "{stderr}");
}

/// Satellite 2: a torn tail (the traced process died mid-write) must
/// degrade to the readable prefix plus a warning.
#[test]
fn stats_on_torn_trace_uses_the_readable_prefix() {
    let dir = temp_dir("stats-torn");
    let f = dir.join("good.opt");
    std::fs::write(&f, EASY).unwrap();
    let trace = dir.join("trace.jsonl");
    let out = alive_bin()
        .args([
            "--fast",
            "--trace",
            trace.to_str().unwrap(),
            f.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // Tear the last line in half, as if the process was killed mid-write.
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.len() > 16, "trace unexpectedly tiny: {text}");
    std::fs::write(&trace, &text.as_bytes()[..text.len() - 9]).unwrap();
    let (code, stdout, stderr) = run(&["stats", trace.to_str().unwrap()]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stderr.contains("warning"), "{stderr}");
    assert!(!stdout.is_empty(), "no report rendered");
}

/// The fuzz subcommand: a small fixed-seed run must be clean, and the
/// digest must not depend on the worker count.
#[test]
fn fuzz_smoke_run_is_clean_and_deterministic() {
    let digest_of = |stdout: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix("digest: "))
            .map(|rest| rest.split_whitespace().next().unwrap().to_string())
            .unwrap_or_else(|| panic!("no digest line in:\n{stdout}"))
    };
    let args = ["fuzz", "--seed", "7", "--cases", "40", "--max-width", "4"];
    let (c1, o1, e1) = run(&args);
    assert_eq!(c1, 0, "stdout:\n{o1}\nstderr:\n{e1}");
    let (c2, o2, _) = run(&[
        "fuzz",
        "--seed",
        "7",
        "--cases",
        "40",
        "--max-width",
        "4",
        "--jobs",
        "2",
    ]);
    assert_eq!(c2, 0, "{o2}");
    assert_eq!(digest_of(&o1), digest_of(&o2));
}

#[test]
fn fuzz_rejects_bad_arguments() {
    for args in [
        &["fuzz", "--cases"][..],
        &["fuzz", "--max-width", "0"][..],
        &["fuzz", "--jobs", "0"][..],
        &["fuzz", "--max-width", "65"][..],
        &["fuzz", "stray-positional"][..],
    ] {
        let (code, _, stderr) = run(args);
        assert_eq!(code, 64, "args {args:?}: {stderr}");
    }
}

#[test]
fn fuzz_replay_of_a_missing_corpus_is_an_error() {
    let dir = temp_dir("replay-missing");
    let missing = dir.join("no-such-corpus");
    let (code, _, stderr) = run(&["fuzz", "--replay", missing.to_str().unwrap()]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("does not exist"), "{stderr}");
    assert!(!missing.exists(), "--replay must not create the directory");
}

/// `--paranoid` re-checks verdicts with the differential oracle; on the
/// known-good and known-bad examples it must agree with normal mode.
#[test]
fn paranoid_mode_agrees_on_valid_and_invalid() {
    let dir = temp_dir("paranoid");
    let good = dir.join("good.opt");
    std::fs::write(&good, GOOD).unwrap();
    let (code, stdout, _) = run(&["--fast", "--paranoid", good.to_str().unwrap()]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("paranoid: agreed"), "{stdout}");
    assert!(!stdout.contains("DISAGREEMENT"), "{stdout}");

    let bad = dir.join("bad.opt");
    std::fs::write(&bad, BAD).unwrap();
    let (code, stdout, _) = run(&["--fast", "--paranoid", bad.to_str().unwrap()]);
    assert_eq!(code, 1, "{stdout}");
    assert!(!stdout.contains("DISAGREEMENT"), "{stdout}");
}

#[test]
fn paranoid_with_resume_is_rejected() {
    let (code, _, stderr) = run(&["--paranoid", "--resume", "journal.jsonl", "x.opt"]);
    assert_eq!(code, 64, "{stderr}");
    assert!(stderr.contains("--paranoid"), "{stderr}");
}

/// `alive hash`: alpha renaming and commuted commutative operands print
/// one hash; a genuinely different transform prints another.
#[test]
fn hash_collapses_alpha_and_commuted_variants() {
    let dir = temp_dir("hash");
    let f = dir.join("variants.opt");
    std::fs::write(
        &f,
        "Name: orig\n%r = add %x, %y\n=>\n%r = shl %x, 1\n\
         Name: variant\n%s = add %w, %u\n=>\n%s = shl %u, 1\n\
         Name: different\n%r = add %x, %y\n=>\n%r = shl %x, 2\n",
    )
    .unwrap();
    let (code, stdout, stderr) = run(&["hash", f.to_str().unwrap()]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    let hashes: Vec<(&str, &str)> = stdout
        .lines()
        .map(|l| l.split_once("  ").expect(l))
        .collect();
    assert_eq!(hashes.len(), 3, "{stdout}");
    for (h, _) in &hashes {
        assert_eq!(h.len(), 16, "{h}");
        assert!(h.chars().all(|c| c.is_ascii_hexdigit()), "{h}");
    }
    assert_eq!(hashes[0].0, hashes[1].0, "variants must collide:\n{stdout}");
    assert_ne!(
        hashes[0].0, hashes[2].0,
        "distinct transforms must not collide:\n{stdout}"
    );

    let (code, _, _) = run(&["hash"]);
    assert_eq!(code, 64);
    let ghost = dir.join("ghost.opt");
    let (code, _, stderr) = run(&["hash", ghost.to_str().unwrap()]);
    assert_eq!(code, 1, "{stderr}");
}

#[test]
fn hash_ends_quietly_when_the_reader_closes_the_pipe() {
    let dir = temp_dir("hash-pipe");
    let f = dir.join("easy.opt");
    std::fs::write(&f, EASY).unwrap();
    // The read end is closed before the child starts, so its first write
    // hits a broken pipe.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = alive_bin()
        .args(["hash", f.to_str().unwrap()])
        .stdout(writer)
        .output()
        .expect("spawn alive");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
    assert!(stderr.is_empty(), "stderr:\n{stderr}");
}

/// Starts `alive serve --stdio`, feeds it `requests`, returns stdout.
fn serve_stdio(store: &std::path::Path, requests: &str) -> String {
    use std::io::Write as _;
    let mut child = alive_bin()
        .args([
            "serve",
            "--stdio",
            "--fast",
            "--store",
            store.to_str().unwrap(),
        ])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(requests.as_bytes())
        .unwrap();
    drop(child.stdin.take());
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The serve daemon over stdio: a fresh store verifies, a second daemon
/// sharing the store answers the same (alpha-renamed) transform from
/// cache without re-verifying.
#[test]
fn serve_stdio_caches_across_daemon_restarts() {
    let dir = temp_dir("serve-stdio");
    let store = dir.join("store.jsonl");
    let first = serve_stdio(
        &store,
        "{\"op\":\"verify\",\"id\":\"a\",\"text\":\"%r = add %x, 0\\n=>\\n%r = %x\"}\n\
         {\"op\":\"shutdown\",\"id\":\"q\"}\n",
    );
    let verdict = first.lines().next().expect(&first);
    assert!(verdict.contains("\"verdict\":\"valid\""), "{first}");
    assert!(verdict.contains("\"cached\":false"), "{first}");
    assert!(first.contains("\"shutdown\":true"), "{first}");

    // Alpha-renamed resubmission to a new daemon over the same store.
    let second = serve_stdio(
        &store,
        "{\"op\":\"verify\",\"id\":\"b\",\"text\":\"%q = add %z, 0\\n=>\\n%q = %z\"}\n\
         {\"op\":\"stats\",\"id\":\"s\"}\n\
         {\"op\":\"shutdown\",\"id\":\"q\"}\n",
    );
    let verdict = second.lines().next().expect(&second);
    assert!(verdict.contains("\"verdict\":\"valid\""), "{second}");
    assert!(verdict.contains("\"cached\":true"), "{second}");
    let stats = second
        .lines()
        .find(|l| l.contains("\"stats\":true"))
        .expect(&second);
    assert!(stats.contains("\"hits\":1"), "{stats}");
    assert!(stats.contains("\"misses\":0"), "{stats}");
}

/// `alive compact` round-trip: a daemon fills a store, dead records are
/// manufactured by duplicating the sealed verdict line (a superseding
/// re-insertion under last-record-wins replay), compaction rewrites the
/// file live-only, and the next daemon serves the verdict warm from the
/// compacted store — nothing acknowledged was lost to the rewrite.
#[test]
fn compact_cli_drops_dead_records_and_keeps_the_store_warm() {
    let dir = temp_dir("compact-cli");
    let store = dir.join("store.jsonl");
    let request = "{\"op\":\"verify\",\"id\":\"a\",\"text\":\"%r = add %x, 0\\n=>\\n%r = %x\"}\n\
         {\"op\":\"shutdown\",\"id\":\"q\"}\n";
    let first = serve_stdio(&store, request);
    assert!(first.contains("\"verdict\":\"valid\""), "{first}");

    // Header + one record; append two byte-identical copies of the
    // record. Replay sees 3 records, the last wins, 2 are dead.
    let text = std::fs::read_to_string(&store).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    let record = lines[1];
    std::fs::write(&store, format!("{text}{record}\n{record}\n")).unwrap();
    let bloated = std::fs::metadata(&store).unwrap().len();

    let (code, stdout, stderr) = run(&["compact", store.to_str().unwrap()]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("3 record(s) replayed"), "{stdout}");
    assert!(
        stdout.contains("kept 1 live record(s), dropped 2 superseded"),
        "{stdout}"
    );
    assert!(
        std::fs::metadata(&store).unwrap().len() < bloated,
        "compaction must shrink a store with dead records"
    );

    // A second pass finds nothing dead and leaves the file untouched.
    let before = std::fs::read(&store).unwrap();
    let (code, stdout, _) = run(&["compact", store.to_str().unwrap()]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("nothing dead"), "{stdout}");
    assert_eq!(std::fs::read(&store).unwrap(), before);

    // The compacted store still answers warm (alpha-renamed resubmission).
    let second = serve_stdio(
        &store,
        "{\"op\":\"verify\",\"id\":\"b\",\"text\":\"%q = add %z, 0\\n=>\\n%q = %z\"}\n\
         {\"op\":\"shutdown\",\"id\":\"q\"}\n",
    );
    let verdict = second.lines().next().expect(&second);
    assert!(verdict.contains("\"verdict\":\"valid\""), "{second}");
    assert!(verdict.contains("\"cached\":true"), "{second}");
}

/// `alive compact` argument and error handling: no path, a stray flag,
/// and a missing store are all failures, not silent no-ops.
#[test]
fn compact_rejects_bad_arguments_and_missing_stores() {
    for args in [&["compact"][..], &["compact", "a.jsonl", "b.jsonl"][..]] {
        let (code, _, stderr) = run(args);
        assert_eq!(code, 64, "args {args:?}: {stderr}");
    }
    let (code, _, stderr) = run(&["compact", "/nonexistent/store.jsonl"]);
    assert_ne!(code, 0, "{stderr}");
}

#[test]
fn serve_rejects_bad_arguments() {
    for args in [
        &["serve", "--store"][..],
        &["serve", "--epoch", "soon"][..],
        &["serve", "--workers"][..],
        &["serve", "--fast", "--exhaustive"][..],
        &["serve", "--stdio", "--socket", "/tmp/x.sock"][..],
        &["serve", "stray-positional"][..],
        &["serve", "--timeout", "-1"][..],
        &["serve", "--request-timeout", "x"][..],
        &["serve", "--drain-timeout", "-1"][..],
    ] {
        let (code, _, stderr) = run(args);
        assert_eq!(code, 64, "args {args:?}: {stderr}");
    }
}

/// `--dedupe`: canonically identical transforms are verified once; each
/// duplicate reports the representative's verdict.
#[test]
fn dedupe_collapses_identical_transforms() {
    let dir = temp_dir("dedupe");
    let f = dir.join("dups.opt");
    std::fs::write(
        &f,
        format!(
            "{EASY}\nName: alpha-twin\n%s = add %w, %w\n=>\n%s = shl %w, 1\n\
             Name: lone\n%r = add %x, 0\n=>\n%r = %x\n"
        ),
    )
    .unwrap();
    let (code, stdout, _) = run(&["--fast", "--dedupe", f.to_str().unwrap()]);
    assert_eq!(code, 0, "{stdout}");
    assert!(
        stdout.contains("dedupe: 3 transform(s) collapse to 2 canonical form(s)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("[deduped: canonically identical to double-to-shl]"),
        "{stdout}"
    );
    assert!(stdout.contains("Name: alpha-twin"), "{stdout}");
    assert!(stdout.contains("Name: lone"), "{stdout}");
    // Only the two representatives were verified and counted.
    assert!(stdout.contains("2 valid, 0 invalid"), "{stdout}");
    assert!(
        stdout.contains("dedupe: 1 duplicate(s) answered"),
        "{stdout}"
    );
}

/// Satellite 2: a `--resume` under different verifier settings must name
/// the fields that differ, not just refuse with a bare warning.
#[test]
fn resume_fingerprint_mismatch_names_the_changed_fields() {
    let dir = temp_dir("resume-mismatch");
    let f = dir.join("easy.opt");
    std::fs::write(&f, EASY).unwrap();
    let journal = dir.join("run.jsonl");
    let (code, _, _) = run(&[
        "--fast",
        "--journal",
        journal.to_str().unwrap(),
        f.to_str().unwrap(),
    ]);
    assert_eq!(code, 0);
    // Resume under the default (non-fast) widths: nothing is reused, and
    // the warning says exactly which settings moved.
    let (code, stdout, stderr) = run(&["--resume", journal.to_str().unwrap(), f.to_str().unwrap()]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stderr.contains("different verifier settings"), "{stderr}");
    assert!(
        stderr.contains("widths: this run"),
        "mismatch report must name the changed field:\n{stderr}"
    );
    assert!(stdout.contains("resume: 0 verdict(s) reused"), "{stdout}");
}

/// Every flag the CLI accepts: `(subcommand, flag, sample value)`, with
/// `""` for the default verify command and `None` for switches.
const FLAG_SURFACE: &[(&str, &str, Option<&str>)] = &[
    ("", "--fast", None),
    ("", "--exhaustive", None),
    ("", "--cpp", None),
    ("", "--infer", None),
    ("", "--keep-going", None),
    ("", "--metrics", None),
    ("", "--paranoid", None),
    ("", "--dedupe", None),
    ("", "--proof", Some("certs")),
    ("", "--report", Some("r.json")),
    ("", "--journal", Some("j.jsonl")),
    ("", "--resume", Some("j.jsonl")),
    ("", "--trace", Some("t.jsonl")),
    ("", "--timeout", Some("1.5")),
    ("", "--grace", Some("1")),
    ("", "--budget", Some("100")),
    ("", "--retries", Some("2")),
    ("", "--jobs", Some("2")),
    ("stats", "--top", Some("5")),
    ("stats", "--folded", None),
    ("stats", "--request", Some("r1")),
    ("fuzz", "--seed", Some("7")),
    ("fuzz", "--cases", Some("3")),
    ("fuzz", "--max-width", Some("8")),
    ("fuzz", "--max-insts", Some("2")),
    ("fuzz", "--jobs", Some("1")),
    ("fuzz", "--timeout", Some("1")),
    ("fuzz", "--budget", Some("100")),
    ("fuzz", "--corpus", Some("corpus")),
    ("fuzz", "--replay", Some("corpus")),
    ("fuzz", "--no-minimize", None),
    ("fuzz", "--trace", Some("t.jsonl")),
    ("serve", "--store", Some("s.jsonl")),
    ("serve", "--socket", Some("s.sock")),
    ("serve", "--stdio", None),
    ("serve", "--epoch", Some("3")),
    ("serve", "--workers", Some("2")),
    ("serve", "--fast", None),
    ("serve", "--exhaustive", None),
    ("serve", "--timeout", Some("1")),
    ("serve", "--budget", Some("100")),
    ("serve", "--retries", Some("2")),
    ("serve", "--cert-dir", Some("certs")),
    ("serve", "--trace", Some("t.jsonl")),
    ("serve", "--metrics", None),
    ("serve", "--slow-ms", Some("0")),
    ("serve", "--max-connections", Some("4")),
    ("serve", "--queue-depth", Some("4")),
    ("serve", "--request-timeout", Some("0")),
    ("serve", "--idle-timeout", Some("30")),
    ("serve", "--drain-timeout", Some("5")),
    ("client", "--socket", Some("s.sock")),
    ("client", "--max-retries", Some("3")),
    ("client", "--seed", Some("7")),
    ("client", "--trace-requests", None),
    ("top", "--socket", Some("s.sock")),
    ("top", "--interval", Some("0.5")),
    ("top", "--count", Some("1")),
    ("slowlog", "--top", Some("5")),
];

/// The CLI surface golden: each flag (with its value) is consumed without
/// running anything, each value flag refuses a missing value, and every
/// subcommand answers `--help`.
#[test]
fn flag_surface_is_stable() {
    for &(sub, flag, value) in FLAG_SURFACE {
        let mut args: Vec<&str> = [sub, flag].into_iter().filter(|a| !a.is_empty()).collect();
        let bare = args.clone();
        args.extend(value);
        args.push("--not-a-flag");
        let (code, _, stderr) = run(&args);
        assert_eq!(code, 64, "args {args:?}: {stderr}");
        assert!(stderr.contains("--not-a-flag"), "args {args:?}: {stderr}");
        if value.is_some() {
            let (code, _, stderr) = run(&bare);
            assert_eq!(code, 64, "args {bare:?}: {stderr}");
            assert!(stderr.contains("requires"), "args {bare:?}: {stderr}");
        }
    }
    for sub in [
        "", "stats", "fuzz", "serve", "client", "top", "slowlog", "scrub", "compact", "hash",
    ] {
        let args: Vec<&str> = [sub, "--help"]
            .into_iter()
            .filter(|a| !a.is_empty())
            .collect();
        let (code, _, stderr) = run(&args);
        assert_eq!(code, 0, "args {args:?}: {stderr}");
    }
}

/// Value and arity checks of the smaller subcommands: each is a usage
/// error before any socket or file is touched.
#[test]
fn subcommand_values_are_validated() {
    for args in [
        &["top", "--socket", "s", "--interval", "0"][..],
        &["top", "--socket", "s", "--count", "x"][..],
        &["client", "x.opt"][..],
        &["client", "--socket", "s", "--max-retries", "x", "y.opt"][..],
        &["stats", "--top", "0", "t"][..],
        &["stats", "--request"][..],
        &["slowlog", "--top", "0", "s"][..],
        &["hash", "--x"][..],
        &["scrub", "a", "b"][..],
    ] {
        let (code, _, stderr) = run(args);
        assert_eq!(code, 64, "args {args:?}: {stderr}");
    }
}

/// An output flag naming an input (or another output) is refused before
/// anything is written: `x.opt` and `./x.opt` are the same file.
#[test]
fn outputs_may_not_overwrite_inputs() {
    let dir = temp_dir("distinct-paths");
    std::fs::write(dir.join("x.opt"), GOOD).unwrap();
    for args in [
        &["--trace", "x.opt", "x.opt"][..],
        &["--trace", "./x.opt", "x.opt"][..],
        &["--report", "x.opt", "x.opt"][..],
        &["--report", "x.opt", "./x.opt"][..],
        &["--journal", "r.json", "--report", "./r.json", "x.opt"][..],
    ] {
        let out = alive_bin().current_dir(&dir).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(64), "args {args:?}: {stderr}");
        assert!(stderr.contains("same file"), "args {args:?}: {stderr}");
        assert_eq!(std::fs::read_to_string(dir.join("x.opt")).unwrap(), GOOD);
        assert!(!dir.join("r.json").exists(), "args {args:?}");
    }
}

/// A verdict store is a file family: `--journal`/`--resume` also write
/// `<store>.lock`, `<store>.tmp` and `<store>.evicted.N`, so no other
/// output may name one of them.
#[test]
fn store_siblings_may_not_be_outputs() {
    let dir = temp_dir("store-family");
    std::fs::write(dir.join("x.opt"), GOOD).unwrap();
    for args in [
        &[
            "--journal",
            "run.jsonl",
            "--report",
            "run.jsonl.lock",
            "x.opt",
        ][..],
        &[
            "--trace",
            "run.jsonl.evicted.0",
            "--resume",
            "run.jsonl",
            "x.opt",
        ][..],
        &[
            "--journal",
            "./run.jsonl",
            "--report",
            "run.jsonl.tmp",
            "x.opt",
        ][..],
    ] {
        let out = alive_bin().current_dir(&dir).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(64), "args {args:?}: {stderr}");
        assert!(
            stderr.contains("same file family"),
            "args {args:?}: {stderr}"
        );
    }
    let mut left: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    left.sort();
    assert_eq!(left, ["x.opt"], "a refused run wrote nothing");
}

/// The header of the batch journal format the verdict store replaced.
const RETIRED_JOURNAL: &str = "{\"journal\":\"alive-journal/v1\",\"config\":\"0123456789abcdef\",\
     \"desc\":\"widths=4,8,;ptr=64\",\"crc\":\"2f553e0e30cf4bb1\"}\n";

/// An old journal handed to `--journal` or `--resume` is refused as a
/// usage error, not rotated away as an unreadable store.
#[test]
fn retired_journal_is_refused_and_left_untouched() {
    let dir = temp_dir("retired-journal");
    let f = dir.join("easy.opt");
    std::fs::write(&f, EASY).unwrap();
    let journal = dir.join("old.jsonl");
    std::fs::write(&journal, RETIRED_JOURNAL).unwrap();
    for flag in ["--journal", "--resume"] {
        let (code, stdout, stderr) = run(&[
            "--fast",
            flag,
            journal.to_str().unwrap(),
            f.to_str().unwrap(),
        ]);
        assert_eq!(code, 64, "{flag}: {stderr}");
        assert!(stderr.contains("alive-journal/v1"), "{flag}: {stderr}");
        assert!(stdout.is_empty(), "{flag}: nothing verified: {stdout}");
        assert_eq!(std::fs::read_to_string(&journal).unwrap(), RETIRED_JOURNAL);
        let siblings: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("old.jsonl."))
            .collect();
        assert!(siblings.is_empty(), "{flag}: {siblings:?}");
    }
}

/// Batch runs and the daemon share one store: a verdict the daemon
/// earned is reused by `--resume` for a renamed copy, and the store the
/// batch run appends to stays one that `alive compact` and `alive scrub`
/// accept.
#[test]
fn resume_reuses_a_verdict_the_daemon_earned() {
    let dir = temp_dir("daemon-to-batch");
    let store = dir.join("shared.jsonl");
    let first = serve_stdio(
        &store,
        "{\"op\":\"verify\",\"id\":\"a\",\"text\":\"%r = add %x, 0\\n=>\\n%r = %x\"}\n\
         {\"op\":\"shutdown\",\"id\":\"q\"}\n",
    );
    assert!(first.contains("\"cached\":false"), "{first}");
    let f = dir.join("renamed.opt");
    std::fs::write(
        &f,
        format!("Name: add-zero\n%q = add %z, 0\n=>\n%q = %z\n\n{EASY}"),
    )
    .unwrap();
    let (code, stdout, stderr) = run(&[
        "--fast",
        "--resume",
        store.to_str().unwrap(),
        f.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(
        stdout.contains("resume: 1 verdict(s) reused, 0 requeued at budget x8, 1 fresh"),
        "{stdout}"
    );
    assert!(stdout.contains("[resumed from journal]"), "{stdout}");
    assert!(stdout.contains("2 valid, 0 invalid"), "{stdout}");
    for sub in ["compact", "scrub"] {
        let (code, stdout, stderr) = run(&[sub, store.to_str().unwrap()]);
        assert_eq!(code, 0, "{sub}: {stdout}{stderr}");
    }
    // Both verdicts are now stored: a second resume reuses them all.
    let (code, stdout, _) = run(&[
        "--fast",
        "--resume",
        store.to_str().unwrap(),
        f.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}");
    assert!(
        stdout.contains("resume: 2 verdict(s) reused, 0 requeued at budget x8, 0 fresh"),
        "{stdout}"
    );
}

/// `serve --trace` naming the verdict store (or a sibling the daemon
/// writes, `<store>.*`) is refused before the store is opened, so the
/// cached verdict survives.
#[test]
fn serve_trace_may_not_name_the_store() {
    let dir = temp_dir("serve-trace-store");
    let store = dir.join("s.jsonl");
    let requests = "{\"op\":\"verify\",\"id\":\"a\",\"text\":\"%r = add %x, 0\\n=>\\n%r = %x\"}\n\
                    {\"op\":\"shutdown\",\"id\":\"q\"}\n";
    let first = serve_stdio(&store, requests);
    assert!(first.contains("\"cached\":false"), "{first}");
    let s = store.to_str().unwrap();
    let dotted = format!("{}/./s.jsonl", dir.to_str().unwrap());
    let slowlog = format!("{s}.slowlog");
    for trace in [s, dotted.as_str(), slowlog.as_str()] {
        let (code, _, stderr) =
            run(&["serve", "--stdio", "--fast", "--store", s, "--trace", trace]);
        assert_eq!(code, 64, "--trace {trace}: {stderr}");
        assert!(stderr.contains("same file"), "--trace {trace}: {stderr}");
    }
    let again = serve_stdio(&store, requests);
    assert!(again.contains("\"cached\":true"), "{again}");
}

/// The README's usage block is the exact `alive --help` text.
#[test]
fn readme_usage_matches_help() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README.md");
    let (code, _, help) = run(&["--help"]);
    assert_eq!(code, 0, "{help}");
    for line in help.lines().map(str::trim).filter(|l| !l.is_empty()) {
        assert!(
            readme.contains(line),
            "README.md lacks `alive --help` line:\n{line}"
        );
    }
}

#[cfg(feature = "fault-injection")]
mod faults {
    use super::*;

    #[test]
    fn bad_fault_spec_is_a_usage_error() {
        let dir = temp_dir("badspec");
        let f = dir.join("good.opt");
        std::fs::write(&f, EASY).unwrap();
        let out = alive_bin()
            .env("ALIVE_FAULT", "sat:explode@1")
            .args(["--fast", f.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(64));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("ALIVE_FAULT"), "{stderr}");
    }

    #[test]
    fn injected_panic_is_survived_and_reported() {
        let dir = temp_dir("panic");
        let f = dir.join("pair.opt");
        std::fs::write(&f, format!("{GOOD}\n{EASY}")).unwrap();
        let report = dir.join("report.json");
        let out = alive_bin()
            .env("ALIVE_FAULT", "sat:panic@1")
            .args([
                "--fast",
                "--keep-going",
                "--retries",
                "0",
                "--report",
                report.to_str().unwrap(),
                f.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("internal error"), "{stdout}");
        assert!(stdout.contains("1 valid, 0 invalid, 1 unknown"), "{stdout}");
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("internal error"), "{json}");
        assert!(json.contains("\"verdict\": \"valid\""), "{json}");
    }

    /// Satellite 4: when the watchdog detaches a worker stuck on a
    /// `hang-hard` fault (ignores budget AND cancellation), the trace must
    /// carry a `pool.detach` mark naming the hung worker and recording the
    /// task's elapsed time. The detached thread leaks and may still be
    /// mid-write when the process exits, so we grep the raw text instead
    /// of using the strict reader (a torn tail is legal here).
    #[test]
    fn watchdog_detach_is_recorded_in_the_trace() {
        let dir = temp_dir("detach-trace");
        let f = dir.join("corpus.opt");
        let mut corpus = format!("{GOOD}\n");
        for i in 0..4 {
            corpus.push_str(&EASY.replace("double-to-shl", &format!("easy-{i}")));
            corpus.push('\n');
        }
        std::fs::write(&f, corpus).unwrap();
        let trace = dir.join("trace.jsonl");
        let out = alive_bin()
            .env("ALIVE_FAULT", "sat:hang-hard@3")
            .args([
                "--fast",
                "--keep-going",
                "--jobs",
                "2",
                "--retries",
                "0",
                "--timeout",
                "1",
                "--grace",
                "1",
                "--trace",
                trace.to_str().unwrap(),
                f.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("hung"), "{stdout}");

        let text = std::fs::read_to_string(&trace).unwrap();
        let detach = text
            .lines()
            .find(|l| l.contains("\"name\":\"pool.detach\""))
            .unwrap_or_else(|| panic!("no pool.detach mark in trace:\n{text}"));
        assert!(detach.contains("\"ev\":\"mark\""), "{detach}");
        // The arg names the detached worker: "worker-<id> <transform>".
        assert!(detach.contains("\"arg\":\"worker-"), "{detach}");
        // The value is the task's elapsed time at detach: at least the
        // 1s timeout plus the 1s grace period, in microseconds.
        let value: u64 = detach
            .split("\"value\":")
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|digits| digits.parse().ok())
            .unwrap_or_else(|| panic!("unparseable value in: {detach}"));
        assert!(
            value >= 1_900_000,
            "elapsed {value}us is below timeout+grace"
        );
    }

    #[test]
    fn injected_hang_is_cut_down_by_the_timeout() {
        let dir = temp_dir("hang");
        let f = dir.join("pair.opt");
        std::fs::write(&f, format!("{GOOD}\n{EASY}")).unwrap();
        let out = alive_bin()
            .env("ALIVE_FAULT", "sat:hang@1")
            .args([
                "--fast",
                "--keep-going",
                "--retries",
                "0",
                "--timeout",
                "1",
                f.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("deadline"), "{stdout}");
        assert!(stdout.contains("1 valid, 0 invalid, 1 unknown"), "{stdout}");
    }

    /// Acceptance: an injected solver panic must be caught by the fuzzer,
    /// shrunk by the minimizer to at most 3 instructions, and persisted
    /// to the corpus under a stable `panic-*` signature.
    #[test]
    fn fuzz_shrinks_an_injected_panic_into_the_corpus() {
        let run_with_fault = |tag: &str| -> (String, String) {
            let dir = temp_dir(tag);
            let corpus = dir.join("corpus");
            let out = alive_bin()
                .env("ALIVE_FAULT", "sat:panic@1")
                .args([
                    "fuzz",
                    "--seed",
                    "3",
                    "--cases",
                    "6",
                    "--max-width",
                    "4",
                    "--corpus",
                    corpus.to_str().unwrap(),
                ])
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(1), "{out:?}");
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            assert!(stdout.contains("FAILURE panic-"), "{stdout}");
            let mut entries: Vec<String> = std::fs::read_dir(&corpus)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            entries.sort();
            assert_eq!(entries.len(), 1, "{entries:?}");
            assert!(entries[0].starts_with("panic-"), "{entries:?}");
            let text = std::fs::read_to_string(corpus.join(&entries[0])).unwrap();
            (entries[0].clone(), text)
        };
        let (name_a, text) = run_with_fault("fuzz-fault-a");
        let t = alive::parse_transform(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
        let insts = t.source.len() + t.target.len();
        assert!(
            insts <= 3,
            "reproducer not minimized ({insts} instructions):\n{text}"
        );
        // Stable signature: the same seed reproduces the same filename.
        let (name_b, _) = run_with_fault("fuzz-fault-b");
        assert_eq!(name_a, name_b);
    }
}
