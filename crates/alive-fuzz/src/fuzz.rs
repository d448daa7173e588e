//! The fuzzing driver: generate → verify → audit → shrink → persist.
//!
//! Each case is generated deterministically from `(seed, index)`, run
//! through the supervised verification pool (so panics are isolated,
//! hangs are reaped by the watchdog, and `--jobs` parallelism applies),
//! and its verdict is audited by the paranoid oracle. Failures are
//! classified into a [`Signature`], shrunk by the delta-debugging
//! minimizer (each probe re-runs the full pipeline), and saved to the
//! crash corpus under their signature.
//!
//! The run digest is computed from the corpus-ordered outcomes, so it is
//! independent of worker count and completion order: the same seed and
//! case count must produce the same digest.

use crate::corpus::{Corpus, FailureClass, Signature};
use crate::gen::{gen_case, GenConfig};
use crate::minimize::minimize;
use crate::oracle::{paranoid_audit, AuditResult, OracleConfig};
use alive_ir::Transform;
use alive_trace::sealed::fnv1a64;
use alive_trace::Tracer;
use alive_verifier::{
    run_supervised, verify_single, DriverConfig, OutcomeKind, PoolConfig, TaskSpec,
    TransformOutcome, UnknownReason, VerifyConfig,
};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Configuration for one fuzzing run.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Run seed; the same seed reproduces the same case sequence.
    pub seed: u64,
    /// Number of cases to generate.
    pub cases: u64,
    /// Generator tunables.
    pub gen: GenConfig,
    /// Paranoid-oracle tunables.
    pub oracle: OracleConfig,
    /// Verification worker count.
    pub jobs: usize,
    /// Per-transform wall deadline (hangs are reaped past this).
    pub timeout: Option<Duration>,
    /// Per-query conflict budget (deterministic, unlike timeouts).
    pub conflict_budget: Option<u64>,
    /// Shrink failures with the delta-debugging minimizer.
    pub minimize: bool,
    /// Probe budget per minimization.
    pub max_shrink_probes: usize,
    /// Crash-corpus directory (failures are persisted when set).
    pub corpus_dir: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 0,
            cases: 100,
            gen: GenConfig::default(),
            oracle: OracleConfig::default(),
            jobs: 1,
            timeout: None,
            conflict_budget: Some(200_000),
            minimize: true,
            max_shrink_probes: 300,
            corpus_dir: None,
        }
    }
}

/// One failing case, after classification and (optional) shrinking.
#[derive(Clone, Debug)]
pub struct FailureCase {
    /// Case index within the run.
    pub index: usize,
    /// Stable failure identity.
    pub signature: Signature,
    /// Human-readable detail (outcome detail or oracle disagreements).
    pub detail: String,
    /// The generated transform.
    pub transform: Transform,
    /// The minimized reproducer (when minimization ran and shrank it).
    pub minimized: Option<Transform>,
    /// Accepted shrink steps.
    pub shrink_steps: usize,
    /// Corpus path, when the reproducer was newly persisted.
    pub saved: Option<PathBuf>,
}

/// Summary of a fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: u64,
    /// Verdict counts.
    pub valid: u64,
    /// Invalid (counterexample found) verdicts.
    pub invalid: u64,
    /// Unknown (budget, deadline, panic) and hung verdicts.
    pub unknown: u64,
    /// Pipeline errors.
    pub errors: u64,
    /// Concrete points executed by the oracle.
    pub points_checked: u64,
    /// Oracle skip notes (transforms it could not brute-force).
    pub audits_skipped: u64,
    /// All failures: panics, hangs, disagreements, errors.
    pub failures: Vec<FailureCase>,
    /// Order-independent digest of (index, kind, detail) triples.
    pub digest: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
}

impl FuzzReport {
    /// True when no case panicked, hung, disagreed, or errored.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Process exit code: 0 clean, 1 failures found.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.is_clean())
    }
}

/// FNV-1a over the parts that must be reproducible across runs.
fn case_hash(index: usize, kind: OutcomeKind, detail: &str) -> u64 {
    let mut bytes = (index as u64).to_le_bytes().to_vec();
    bytes.extend_from_slice(kind.as_str().as_bytes());
    bytes.extend_from_slice(detail.as_bytes());
    fnv1a64(&bytes)
}

/// Classifies one verified outcome (with its audit) into a failure.
fn classify(outcome: &TransformOutcome, audit: &AuditResult) -> Option<(FailureClass, String)> {
    let detail = outcome.detail.clone();
    if matches!(outcome.reason, Some(UnknownReason::Panic { .. })) {
        return Some((FailureClass::Panic, detail));
    }
    if outcome.kind == OutcomeKind::Hung {
        return Some((FailureClass::Hang, detail));
    }
    if !audit.is_clean() {
        return Some((FailureClass::Disagreement, audit.disagreements.join("; ")));
    }
    if outcome.kind == OutcomeKind::Error {
        return Some((FailureClass::Error, detail));
    }
    None
}

/// Runs the full pipeline on a single transform and classifies the result
/// (used by minimization probes). Returns `None` for clean outcomes.
fn classify_single(
    t: &Transform,
    config: &DriverConfig,
    vcfg: &VerifyConfig,
    ocfg: &OracleConfig,
) -> Option<(Signature, String)> {
    // Each probe re-fires the installed fault plan from its first operation.
    #[cfg(feature = "fault-injection")]
    alive_sat::fault::rearm();
    let outcome = verify_single("probe", t, config);
    let audit = paranoid_audit(t, outcome.kind, &outcome.certificates, vcfg, ocfg);
    let (class, detail) = classify(&outcome, &audit)?;
    Some((Signature::new(class, &detail), detail))
}

/// Runs one fuzzing campaign.
///
/// Progress counters are emitted through `tracer` (`fuzz.cases`,
/// `fuzz.disagreements`, `fuzz.shrink_steps`, …); pass
/// [`Tracer::disabled()`] to opt out.
pub fn run_fuzz(cfg: &FuzzConfig, tracer: &Tracer) -> FuzzReport {
    // Generate the corpus for this run, deterministically.
    let transforms: Vec<(String, Transform)> = (0..cfg.cases)
        .map(|i| (format!("fuzz-{i}"), gen_case(cfg.seed, i, &cfg.gen)))
        .collect();
    campaign(&transforms, cfg, tracer)
}

/// Replays every reproducer in a crash corpus as a regression suite.
///
/// Each entry runs through the same pipeline and paranoid audit as a
/// freshly fuzzed case; the report's `failures` list the entries that
/// still panic, hang, disagree, or error. Minimization and corpus
/// persistence are disabled — the entries *are* the corpus.
///
/// # Errors
///
/// Returns an error when the directory cannot be read or an entry fails
/// to parse (a corrupt reproducer is itself a regression).
pub fn replay_corpus(dir: &Path, cfg: &FuzzConfig, tracer: &Tracer) -> io::Result<FuzzReport> {
    if !dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("corpus directory {} does not exist", dir.display()),
        ));
    }
    let corpus = Corpus::open(dir)?;
    let transforms = corpus.entries()?;
    let replay_cfg = FuzzConfig {
        minimize: false,
        corpus_dir: None,
        ..cfg.clone()
    };
    Ok(campaign(&transforms, &replay_cfg, tracer))
}

/// The shared campaign body: verify every transform through the
/// supervised pool, audit each verdict, classify/shrink/persist failures.
fn campaign(transforms: &[(String, Transform)], cfg: &FuzzConfig, tracer: &Tracer) -> FuzzReport {
    let started = Instant::now();
    #[cfg(feature = "fault-injection")]
    alive_sat::fault::rearm();

    let vcfg = {
        let mut v = VerifyConfig::fast();
        v.typeck.widths = (1..=cfg.gen.max_width).collect();
        v.typeck.max_assignments = 16;
        v
    };
    let driver = DriverConfig {
        verify: vcfg.clone(),
        timeout: cfg.timeout,
        conflict_budget: cfg.conflict_budget,
        keep_going: true,
        with_certificates: true,
        ..DriverConfig::default()
    };
    let pool = PoolConfig {
        jobs: cfg.jobs.max(1),
        ..PoolConfig::default()
    };

    // Verify through the supervised pool; audit each verdict as it
    // lands (the observer runs serially on this thread).
    let mut audits: Vec<Option<AuditResult>> = vec![None; transforms.len()];
    let tasks: Vec<TaskSpec> = (0..transforms.len()).map(TaskSpec::fresh).collect();
    let report = {
        let audits = &mut audits;
        run_supervised(
            transforms,
            tasks,
            Vec::new(),
            &driver,
            &pool,
            |idx, outcome| {
                let t = &transforms[idx].1;
                let audit =
                    paranoid_audit(t, outcome.kind, &outcome.certificates, &vcfg, &cfg.oracle);
                tracer.counter("fuzz.cases", 1);
                tracer.counter("fuzz.points", audit.points_checked);
                if !audit.is_clean() {
                    tracer.counter("fuzz.disagreements", audit.disagreements.len() as u64);
                }
                audits[idx] = Some(audit);
            },
        )
    };

    // Classify, digest, and collect failures in corpus order.
    let mut out = FuzzReport {
        cases: transforms.len() as u64,
        ..FuzzReport::default()
    };
    let mut failures: Vec<(usize, FailureClass, String)> = Vec::new();
    for (idx, outcome) in report.outcomes.iter().enumerate() {
        let audit = audits[idx].take().unwrap_or_default();
        out.points_checked += audit.points_checked;
        out.audits_skipped += audit.skipped.len() as u64;
        match outcome.kind {
            OutcomeKind::Valid => out.valid += 1,
            OutcomeKind::Invalid => out.invalid += 1,
            OutcomeKind::Unknown | OutcomeKind::Hung => out.unknown += 1,
            OutcomeKind::Error => out.errors += 1,
        }
        out.digest ^= case_hash(idx, outcome.kind, &outcome.detail);
        if let Some((class, detail)) = classify(outcome, &audit) {
            failures.push((idx, class, detail));
        }
    }

    // Shrink and persist failures.
    let corpus = cfg.corpus_dir.as_ref().and_then(|d| Corpus::open(d).ok());
    for (idx, class, detail) in failures {
        let t = transforms[idx].1.clone();
        let signature = Signature::new(class, &detail);
        let mut minimized = None;
        let mut shrink_steps = 0usize;
        if cfg.minimize {
            let (small, stats) = minimize(
                &t,
                |cand| {
                    classify_single(cand, &driver, &vcfg, &cfg.oracle)
                        .is_some_and(|(s, _)| s == signature)
                },
                cfg.max_shrink_probes,
            );
            tracer.counter("fuzz.shrink_steps", stats.accepted as u64);
            shrink_steps = stats.accepted;
            if small != t {
                minimized = Some(small);
            }
        }
        let repro = minimized.as_ref().unwrap_or(&t);
        let saved = match &corpus {
            Some(c) => match c.save(&signature, repro, &detail) {
                Ok(true) => Some(c.path_for(&signature)),
                _ => None,
            },
            None => None,
        };
        out.failures.push(FailureCase {
            index: idx,
            signature,
            detail,
            transform: t,
            minimized,
            shrink_steps,
            saved,
        });
    }

    tracer.flush();
    out.wall = started.elapsed();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(cases: u64, seed: u64) -> FuzzConfig {
        FuzzConfig {
            seed,
            cases,
            // Tiny widths keep debug-build SAT solving fast.
            gen: GenConfig {
                max_width: 4,
                max_insts: 4,
                ..GenConfig::default()
            },
            oracle: OracleConfig {
                max_points: 1024,
                max_typings: 4,
                ..OracleConfig::default()
            },
            conflict_budget: Some(50_000),
            minimize: false,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn small_run_is_clean_and_deterministic() {
        let cfg = quick_cfg(25, 42);
        let a = run_fuzz(&cfg, &Tracer::disabled());
        assert!(
            a.is_clean(),
            "failures: {:#?}",
            a.failures
                .iter()
                .map(|f| (f.index, f.signature.slug(), f.detail.clone()))
                .collect::<Vec<_>>()
        );
        assert_eq!(a.cases, 25);
        let b = run_fuzz(&cfg, &Tracer::disabled());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.valid, b.valid);
        assert_eq!(a.invalid, b.invalid);
    }

    #[test]
    fn jobs_do_not_change_the_digest() {
        let mut cfg = quick_cfg(12, 7);
        let a = run_fuzz(&cfg, &Tracer::disabled());
        cfg.jobs = 4;
        let b = run_fuzz(&cfg, &Tracer::disabled());
        assert_eq!(a.digest, b.digest);
    }
}
