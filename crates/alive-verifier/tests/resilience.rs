//! Resilient-driver behavior: budgets, escalating retries, cancellation,
//! panic isolation — and, under `--features fault-injection`, survival of
//! injected solver faults with honest reporting.
//!
//! The fault plan is process-global, so every test here serializes on one
//! mutex; tests in other binaries run in other processes and are unaffected.

use alive_ir::Transform;
use alive_smt::{CancelToken, EfStop};
use alive_verifier::{
    run_transforms_parallel, DriverConfig, OutcomeKind, PoolConfig, RunReport, UnknownReason,
    VerifyConfig,
};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The paper's intro transform: needs a real SAT refutation (~100 conflicts
/// at width 4), and exactly one solver query per typing (the definedness
/// and poison conditions constant-fold away).
const INTRO: &str = "%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C-1, %x";

/// Invalid variant of [`INTRO`] (wrong constant).
const INTRO_BAD: &str = "%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C, %x";

/// Invalid only at the signed maximum: a corrupted (bit-flipped) model is
/// *not* a counterexample, so model re-validation must reject it.
#[cfg(feature = "fault-injection")]
const SGT_MAX: &str = "%1 = add %x, 1\n%2 = icmp sgt %1, %x\n=>\n%2 = true";

/// Width-4-only config: one typing, hence one SAT query, per transform —
/// keeps fault ordinals deterministic.
fn narrow() -> VerifyConfig {
    let mut vc = VerifyConfig::fast();
    vc.typeck.widths = vec![4];
    vc
}

fn named(name: &str, src: &str) -> (String, Transform) {
    (
        name.to_string(),
        alive_ir::parse_transform(src).expect(name),
    )
}

fn kinds(report: &RunReport) -> Vec<OutcomeKind> {
    report.outcomes.iter().map(|o| o.kind).collect()
}

#[test]
fn driver_classifies_and_reports_json() {
    let _g = serial();
    let corpus = vec![named("good", INTRO), named("bad", INTRO_BAD)];
    let config = DriverConfig {
        verify: narrow(),
        keep_going: true,
        ..DriverConfig::default()
    };
    let report = run_transforms_parallel(&corpus, &config, &PoolConfig::default());
    assert_eq!(kinds(&report), [OutcomeKind::Valid, OutcomeKind::Invalid]);
    assert_eq!(report.exit_code(), 1);
    assert_eq!(report.skipped, 0);
    let json = report.to_json();
    assert!(json.contains("\"schema\": \"alive-report/v3\""));
    assert!(json.contains("\"verdict\": \"valid\""));
    assert!(json.contains("\"verdict\": \"invalid\""));
    assert!(json.contains("\"name\": \"bad\""));
    // v2 additions: per-transform attempt history and worker attribution.
    assert!(json.contains("\"attempts\": ["));
    assert!(json.contains("\"worker\": 0"));
    assert!(json.contains("\"resumed\": false"));
    assert!(json.contains("\"hung\": 0"));
    // v3 additions: extended solver counters and per-phase timings.
    assert!(json.contains("\"propagations\": "));
    assert!(json.contains("\"ef_rounds\": "));
    assert!(json.contains("\"phases\": {\"typeck_us\": "));
}

#[test]
fn without_keep_going_the_first_failure_stops_the_run() {
    let _g = serial();
    let corpus = vec![named("bad", INTRO_BAD), named("good", INTRO)];
    let config = DriverConfig {
        verify: narrow(),
        keep_going: false,
        ..DriverConfig::default()
    };
    let report = run_transforms_parallel(&corpus, &config, &PoolConfig::default());
    assert_eq!(kinds(&report), [OutcomeKind::Invalid]);
    assert_eq!(report.skipped, 1);
    assert_eq!(report.exit_code(), 1);
}

#[test]
fn cancellation_before_the_run_skips_everything() {
    let _g = serial();
    let corpus = vec![named("a", INTRO), named("b", INTRO)];
    let cancel = CancelToken::new();
    cancel.cancel();
    let config = DriverConfig {
        verify: narrow(),
        cancel,
        ..DriverConfig::default()
    };
    let report = run_transforms_parallel(&corpus, &config, &PoolConfig::default());
    assert!(report.cancelled);
    assert!(report.outcomes.is_empty());
    assert_eq!(report.skipped, 2);
    assert_eq!(report.exit_code(), 130);
    // The partial report still serializes.
    assert!(report.to_json().contains("\"cancelled\": true"));
}

#[test]
fn expired_deadline_reports_unknown_with_reason() {
    let _g = serial();
    let corpus = vec![named("t", INTRO)];
    let config = DriverConfig {
        verify: narrow(),
        timeout: Some(Duration::ZERO),
        keep_going: true,
        ..DriverConfig::default()
    };
    let report = run_transforms_parallel(&corpus, &config, &PoolConfig::default());
    assert_eq!(kinds(&report), [OutcomeKind::Unknown]);
    assert!(
        report.outcomes[0].detail.contains("deadline"),
        "{}",
        report.outcomes[0].detail
    );
    assert_eq!(report.exit_code(), 2);
}

#[test]
fn escalating_retries_recover_budget_exhaustion() {
    let _g = serial();
    // INTRO needs ~106 conflicts at width 4: attempts at 2, 16, 128
    // conflicts — the third one (second retry) lands it.
    let corpus = vec![named("t", INTRO)];
    let config = DriverConfig {
        verify: narrow(),
        conflict_budget: Some(2),
        max_retries: 2,
        retry_multiplier: 8,
        ..DriverConfig::default()
    };
    let report = run_transforms_parallel(&corpus, &config, &PoolConfig::default());
    assert_eq!(kinds(&report), [OutcomeKind::Valid]);
    assert_eq!(report.outcomes[0].retries, 2);
    assert_eq!(report.exit_code(), 0);
}

#[test]
fn exhausted_retries_stay_unknown() {
    let _g = serial();
    let corpus = vec![named("t", INTRO)];
    let config = DriverConfig {
        verify: narrow(),
        conflict_budget: Some(2),
        max_retries: 1,
        retry_multiplier: 8,
        keep_going: true,
        ..DriverConfig::default()
    };
    let report = run_transforms_parallel(&corpus, &config, &PoolConfig::default());
    assert_eq!(kinds(&report), [OutcomeKind::Unknown]);
    assert_eq!(report.outcomes[0].retries, 1);
    assert!(
        report.outcomes[0]
            .detail
            .contains("conflict budget exhausted"),
        "{}",
        report.outcomes[0].detail
    );
    assert_eq!(report.exit_code(), 2);
}

#[test]
fn an_iteration_limit_is_not_retried() {
    let _g = serial();
    // Under the CEGIS cap every SAT call finishes, so a larger conflict
    // budget would replay the same run: one attempt, no retries.
    let src = "%a = add i8 %x, undef\n%r = and %a, undef\n=>\n%r = and %x, undef";
    let corpus = vec![named("t", src)];
    let mut verify = VerifyConfig::fast();
    verify.ef.max_iterations = 1;
    let config = DriverConfig {
        verify,
        conflict_budget: Some(1_000),
        max_retries: 2,
        keep_going: true,
        ..DriverConfig::default()
    };
    let report = run_transforms_parallel(&corpus, &config, &PoolConfig::default());
    let o = &report.outcomes[0];
    assert_eq!(o.kind, OutcomeKind::Unknown, "{}", o.detail);
    assert!(
        matches!(
            o.reason,
            Some(UnknownReason::Solver {
                stop: EfStop::IterationLimit(1),
                ..
            })
        ),
        "{}",
        o.detail
    );
    assert!(o.detail.ends_with("CEGIS iteration limit of 1 reached"));
    assert_eq!((o.retries, o.attempts.len()), (0, 1));
}

#[test]
fn json_report_escapes_special_characters() {
    let _g = serial();
    use alive_verifier::{Attempt, TransformOutcome};
    let report = RunReport {
        outcomes: vec![TransformOutcome {
            name: "with \"quotes\"\nand newline".to_string(),
            kind: OutcomeKind::Unknown,
            detail: "tab\there".to_string(),
            reason: None,
            certificates: Vec::new(),
            wall: Duration::from_millis(3),
            conflicts: 1,
            propagations: 0,
            decisions: 0,
            restarts: 0,
            ef_rounds: 0,
            phases: alive_verifier::PhaseTimes::default(),
            queries: 2,
            typings: 1,
            retries: 0,
            worker: 0,
            resumed: false,
            attempts: vec![Attempt {
                wall: Duration::from_millis(3),
                conflicts: 1,
                outcome: "unknown: tab\there".to_string(),
            }],
        }],
        cancelled: false,
        skipped: 0,
    };
    let json = report.to_json();
    assert!(json.contains("with \\\"quotes\\\"\\nand newline"));
    assert!(json.contains("tab\\there"));
}

#[cfg(feature = "fault-injection")]
mod faults {
    use super::*;
    use alive_sat::fault::{self, FailurePlan};
    use alive_verifier::{infer_attributes, verify_single, FailureKind};

    /// Installs `spec` for the duration of one closure, then clears it.
    fn with_plan<T>(spec: &str, f: impl FnOnce() -> T) -> T {
        fault::install(Some(FailurePlan::parse(spec).expect(spec)));
        let out = f();
        fault::install(None);
        out
    }

    #[test]
    fn injected_panic_degrades_to_unknown_and_the_run_survives() {
        let _g = serial();
        let corpus = vec![named("first", INTRO), named("second", INTRO)];
        let config = DriverConfig {
            verify: narrow(),
            keep_going: true,
            max_retries: 0,
            ..DriverConfig::default()
        };
        let report = with_plan("sat:panic@1", || {
            run_transforms_parallel(&corpus, &config, &PoolConfig::default())
        });
        assert_eq!(kinds(&report), [OutcomeKind::Unknown, OutcomeKind::Valid]);
        assert!(
            report.outcomes[0].detail.contains("internal error"),
            "{}",
            report.outcomes[0].detail
        );
        assert_eq!(report.exit_code(), 2);
    }

    #[test]
    fn a_panic_keeps_everything_refuted_before_it() {
        let _g = serial();
        // INTRO at widths 4 and 8: two typings, one SAT query each (the
        // definedness and poison conditions fold to false). The second SAT
        // query panics, after typing 0's three conditions were refuted.
        let t = alive_ir::parse_transform(INTRO).unwrap();
        let config = DriverConfig {
            verify: VerifyConfig::fast(),
            with_certificates: true,
            ..DriverConfig::default()
        };
        let o = with_plan("sat:panic@2", || verify_single("t", &t, &config));
        assert_eq!(o.kind, OutcomeKind::Unknown, "{}", o.detail);
        assert_eq!((o.typings, o.queries, o.retries), (2, 6, 0));
        let typing0 = &o.certificates[0].meta.typing;
        let kept: Vec<_> = o
            .certificates
            .iter()
            .filter(|c| &c.meta.typing == typing0)
            .collect();
        assert_eq!(kept.len(), 3);
        for cert in &o.certificates {
            cert.check()
                .expect("a certificate kept past the panic checks");
        }
        assert_eq!(
            o.reason,
            Some(UnknownReason::Panic {
                at: Some((1, FailureKind::ValueMismatch)),
                message: "injected fault: panic in alive_sat::Solver::solve".to_string(),
            })
        );
        assert!(
            o.detail
                .starts_with("internal error: panic in typing 1 at the Mismatch in values check: "),
            "{}",
            o.detail
        );
    }

    #[test]
    fn attribute_inference_turns_a_panic_into_an_error() {
        let _g = serial();
        let t = alive_ir::parse_transform(INTRO).unwrap();
        let result = with_plan("sat:panic@1", || infer_attributes(&t, &narrow()));
        let err = result.expect_err("a panicking query must not infer attributes");
        assert!(err.message.contains("internal error: "), "{}", err.message);
    }

    #[test]
    fn injected_unknown_is_never_retried() {
        let _g = serial();
        let corpus = vec![named("t", INTRO)];
        let config = DriverConfig {
            verify: narrow(),
            conflict_budget: Some(1_000),
            max_retries: 3,
            keep_going: true,
            ..DriverConfig::default()
        };
        let report = with_plan("sat:unknown@1", || {
            run_transforms_parallel(&corpus, &config, &PoolConfig::default())
        });
        assert_eq!(kinds(&report), [OutcomeKind::Unknown]);
        assert_eq!(
            report.outcomes[0].retries, 0,
            "injected faults must not retry"
        );
        assert!(
            report.outcomes[0].detail.contains("injected"),
            "{}",
            report.outcomes[0].detail
        );
    }

    #[test]
    fn corrupted_model_is_caught_by_concrete_revalidation() {
        let _g = serial();
        let corpus = vec![named("t", SGT_MAX)];
        let config = DriverConfig {
            verify: narrow(),
            keep_going: true,
            max_retries: 0,
            ..DriverConfig::default()
        };
        let report = with_plan("sat:corrupt-model@1", || {
            run_transforms_parallel(&corpus, &config, &PoolConfig::default())
        });
        assert_eq!(kinds(&report), [OutcomeKind::Unknown]);
        assert!(
            report.outcomes[0].detail.contains("re-validation"),
            "{}",
            report.outcomes[0].detail
        );
        // Without the fault the same transform is honestly invalid.
        let clean = run_transforms_parallel(&corpus, &config, &PoolConfig::default());
        assert_eq!(kinds(&clean), [OutcomeKind::Invalid]);
    }

    /// The issue's acceptance scenario: a corpus run with an injected panic
    /// AND an injected never-terminating query (tamed by `--timeout`),
    /// completing under keep-going with both reported as Unknown — reasons
    /// and all — while every healthy transform still verifies.
    #[test]
    fn acceptance_panic_and_hang_in_one_corpus_run() {
        let _g = serial();
        // Five copies of INTRO: one typing and one SAT query each, so SAT
        // ordinal i maps to transform i... except that a fault consumes the
        // ordinal of the query it replaces. Ordinals land as: t1 → 1,
        // t2 → 2 (panic; no further queries for t2), t3 → 3, t4 → 4 (hang),
        // t5 → 5.
        let corpus: Vec<(String, Transform)> =
            (1..=5).map(|i| named(&format!("t{i}"), INTRO)).collect();
        let config = DriverConfig {
            verify: narrow(),
            timeout: Some(Duration::from_secs(2)),
            keep_going: true,
            max_retries: 0,
            ..DriverConfig::default()
        };
        let report = with_plan("sat:panic@2,sat:hang@4", || {
            run_transforms_parallel(&corpus, &config, &PoolConfig::default())
        });
        assert_eq!(
            kinds(&report),
            [
                OutcomeKind::Valid,
                OutcomeKind::Unknown,
                OutcomeKind::Valid,
                OutcomeKind::Unknown,
                OutcomeKind::Valid,
            ],
            "{report:?}"
        );
        assert!(
            report.outcomes[1].detail.contains("internal error"),
            "panic victim must carry an internal-error reason: {}",
            report.outcomes[1].detail
        );
        assert!(
            report.outcomes[3].detail.contains("deadline"),
            "hang victim must be cut down by the deadline: {}",
            report.outcomes[3].detail
        );
        assert!(!report.cancelled);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.exit_code(), 2);
        // Both failure reasons surface in the JSON report.
        let json = report.to_json();
        assert!(json.contains("internal error"));
        assert!(json.contains("deadline"));
        assert!(json.contains("\"unknown\": 2"));
        assert!(json.contains("\"valid\": 3"));
    }

    #[test]
    fn cancellation_cuts_a_hang_short() {
        let _g = serial();
        let corpus = vec![named("t", INTRO)];
        let cancel = CancelToken::new();
        let config = DriverConfig {
            verify: narrow(),
            cancel: cancel.clone(),
            keep_going: true,
            max_retries: 0,
            ..DriverConfig::default()
        };
        // No deadline at all: only cancellation can end the injected hang.
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            cancel.cancel();
        });
        let report = with_plan("sat:hang@1", || {
            run_transforms_parallel(&corpus, &config, &PoolConfig::default())
        });
        canceller.join().unwrap();
        assert!(report.cancelled, "{report:?}");
        assert_eq!(kinds(&report), [OutcomeKind::Unknown]);
        assert!(
            report.outcomes[0].detail.contains("cancelled"),
            "{}",
            report.outcomes[0].detail
        );
        assert_eq!(report.exit_code(), 130);
    }
}
