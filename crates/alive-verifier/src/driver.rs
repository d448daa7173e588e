//! The resilient corpus driver.
//!
//! Verifying a corpus of transformations must survive the failure of any
//! one of them: a query that outgrows its budget, a wall-clock deadline, a
//! Ctrl-C, or an outright defect (panic) in the solver stack. This module
//! wraps [`verify`](crate::verify()) in the machinery that makes a batch
//! run dependable:
//!
//! * **budgets** — each transform is verified under a [`Budget`] combining
//!   a per-attempt wall-clock deadline, a SAT conflict limit, and a shared
//!   [`CancelToken`];
//! * **panic isolation** — a panic anywhere inside verification degrades to
//!   an `Unknown` outcome with an `internal error:` reason instead of
//!   aborting the run;
//! * **escalating retries** — transforms whose conflict budget ran out are
//!   re-run with the conflict limit multiplied, so a cheap first pass over
//!   the corpus is followed by a slower second look at the stragglers only;
//!   a retry resumes at the condition that ran out, since every condition
//!   before it is already refuted;
//! * **structured reporting** — every transform yields a
//!   [`TransformOutcome`] with verdict, wall time, per-attempt records,
//!   solver counters, and per-phase timings, and the whole run serializes
//!   to JSON ([`RunReport::to_json`], schema `alive-report/v3`) even when
//!   it was cancelled halfway.
//!
//! The sequential entry point is [`run_transforms`]; the supervised
//! parallel driver (worker pool, watchdog) lives in
//! [`crate::pool`] and reuses [`verify_one`] per task.

use crate::verify::{
    panic_message, verify_impl, CheckPoint, PhaseTimes, Verdict, VerifyConfig, VerifyStats,
};
use alive_ir::Transform;
use alive_proof::Certificate;
use alive_smt::{Budget, CancelToken};
use alive_trace::sealed::json_escape;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Settings for [`run_transforms`].
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Underlying verifier settings (type enumeration, CEGIS). The budget
    /// inside `verify.ef` is overridden per attempt from the fields below.
    pub verify: VerifyConfig,
    /// Wall-clock limit per verification attempt (re-armed on retry).
    pub timeout: Option<Duration>,
    /// SAT conflict limit for the first attempt.
    pub conflict_budget: Option<u64>,
    /// Keep verifying after an invalid transform or an error (the default
    /// stops at the first, reporting the rest as skipped).
    pub keep_going: bool,
    /// How many escalating retries a budget-exhausted transform gets.
    pub max_retries: u32,
    /// Conflict-budget multiplier applied on each retry.
    pub retry_multiplier: u64,
    /// Cooperative cancellation (Ctrl-C); checked between transforms and
    /// polled inside every solver.
    pub cancel: CancelToken,
    /// Also produce refinement certificates for refuted conditions.
    pub with_certificates: bool,
}

impl Default for DriverConfig {
    fn default() -> DriverConfig {
        DriverConfig {
            verify: VerifyConfig::default(),
            timeout: None,
            conflict_budget: None,
            keep_going: false,
            max_retries: 1,
            retry_multiplier: 8,
            cancel: CancelToken::new(),
            with_certificates: false,
        }
    }
}

/// How one transform's verification concluded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OutcomeKind {
    /// Proven correct.
    Valid,
    /// Counterexample found.
    Invalid,
    /// No conclusion (budget, deadline, cancellation, internal error).
    Unknown,
    /// The transform could not even be set up (ill-formed, ill-typed).
    Error,
    /// The worker verifying this transform ignored cancellation past the
    /// watchdog's grace period and was detached (supervised runs only).
    Hung,
}

impl OutcomeKind {
    /// Stable lower-case label used in the JSON report and the store.
    pub fn as_str(self) -> &'static str {
        match self {
            OutcomeKind::Valid => "valid",
            OutcomeKind::Invalid => "invalid",
            OutcomeKind::Unknown => "unknown",
            OutcomeKind::Error => "error",
            OutcomeKind::Hung => "hung",
        }
    }

    /// Inverse of [`OutcomeKind::as_str`] (used when loading the store).
    pub fn from_label(s: &str) -> Option<OutcomeKind> {
        Some(match s {
            "valid" => OutcomeKind::Valid,
            "invalid" => OutcomeKind::Invalid,
            "unknown" => OutcomeKind::Unknown,
            "error" => OutcomeKind::Error,
            "hung" => OutcomeKind::Hung,
            _ => return None,
        })
    }
}

/// One verification attempt inside a [`TransformOutcome`]: every attempt
/// this process ran is recorded, so the report can show where the time
/// went.
#[derive(Clone, Debug)]
pub struct Attempt {
    /// Wall time of this attempt.
    pub wall: Duration,
    /// SAT conflicts spent in this attempt.
    pub conflicts: u64,
    /// Short outcome label: `valid`, `invalid`, `error`, `hung`, or
    /// `unknown: <reason>`.
    pub outcome: String,
}

/// The record of one transform's verification within a run.
#[derive(Clone, Debug)]
pub struct TransformOutcome {
    /// Transform name (or `<unnamed>`).
    pub name: String,
    /// Final classification.
    pub kind: OutcomeKind,
    /// Human-readable detail: the verdict display, counterexample, or the
    /// reason no conclusion was reached.
    pub detail: String,
    /// Certificates for refuted conditions (when requested), every
    /// attempt's in check order.
    pub certificates: Vec<Certificate>,
    /// Wall time across all attempts.
    pub wall: Duration,
    /// SAT conflicts spent across all attempts.
    pub conflicts: u64,
    /// Literals propagated across all attempts.
    pub propagations: u64,
    /// Solver decisions across all attempts.
    pub decisions: u64,
    /// Solver restarts across all attempts.
    pub restarts: u64,
    /// CEGIS refinement rounds across all attempts.
    pub ef_rounds: u64,
    /// Per-phase wall time across all attempts.
    pub phases: PhaseTimes,
    /// SMT queries issued across all attempts.
    pub queries: usize,
    /// Type assignments examined.
    pub typings: usize,
    /// How many retries were consumed.
    pub retries: u32,
    /// Pool worker that produced the outcome (0 in sequential runs).
    pub worker: u32,
    /// `true` when the outcome was reused from a `--resume` store instead
    /// of being verified in this process.
    pub resumed: bool,
    /// Per-attempt history of this process, oldest first; empty for a
    /// reused verdict.
    pub attempts: Vec<Attempt>,
}

impl TransformOutcome {
    /// A synthetic outcome for bookkeeping paths (hung workers, resumed
    /// records) that never ran the verifier in this process.
    pub fn synthetic(name: &str, kind: OutcomeKind, detail: String) -> TransformOutcome {
        TransformOutcome {
            name: name.to_string(),
            kind,
            detail,
            certificates: Vec::new(),
            wall: Duration::ZERO,
            conflicts: 0,
            propagations: 0,
            decisions: 0,
            restarts: 0,
            ef_rounds: 0,
            phases: PhaseTimes::default(),
            queries: 0,
            typings: 0,
            retries: 0,
            worker: 0,
            resumed: false,
            attempts: Vec::new(),
        }
    }
}

/// Everything a corpus run produced, cancelled or not.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Per-transform outcomes, in corpus (input) order — regardless of the
    /// order in which parallel workers completed them.
    pub outcomes: Vec<TransformOutcome>,
    /// `true` if the run was cut short by cancellation.
    pub cancelled: bool,
    /// Transforms never attempted (cancellation or fail-fast stop).
    pub skipped: usize,
}

impl RunReport {
    /// Number of outcomes with the given kind.
    pub fn count(&self, kind: OutcomeKind) -> usize {
        self.outcomes.iter().filter(|o| o.kind == kind).count()
    }

    /// The process exit code mirroring the CLI contract: 130 after
    /// cancellation, 1 for any invalid/error, 2 for unknowns/hangs only,
    /// else 0.
    pub fn exit_code(&self) -> i32 {
        if self.cancelled {
            130
        } else if self.count(OutcomeKind::Invalid) > 0 || self.count(OutcomeKind::Error) > 0 {
            1
        } else if self.count(OutcomeKind::Unknown) > 0 || self.count(OutcomeKind::Hung) > 0 {
            2
        } else {
            0
        }
    }

    /// Serializes the report (schema `alive-report/v3`).
    ///
    /// v3 extends v2 with per-transform solver counters (`propagations`,
    /// `decisions`, `restarts`, `ef_rounds`) and a `phases` object giving
    /// microsecond wall time per verification phase.
    ///
    /// Transforms are listed in input order, so sequential and parallel
    /// runs of the same corpus produce identical reports apart from the
    /// volatile fields (`wall_ms`, per-attempt `wall_ms`, `phases`, and
    /// `worker` — scheduling noise by construction).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + self.outcomes.len() * 200);
        s.push_str("{\n  \"schema\": \"alive-report/v3\",\n");
        s.push_str(&format!("  \"cancelled\": {},\n", self.cancelled));
        s.push_str(&format!("  \"skipped\": {},\n", self.skipped));
        s.push_str(&format!(
            "  \"summary\": {{\"total\": {}, \"valid\": {}, \"invalid\": {}, \
             \"unknown\": {}, \"errors\": {}, \"hung\": {}}},\n",
            self.outcomes.len(),
            self.count(OutcomeKind::Valid),
            self.count(OutcomeKind::Invalid),
            self.count(OutcomeKind::Unknown),
            self.count(OutcomeKind::Error),
            self.count(OutcomeKind::Hung),
        ));
        s.push_str("  \"transforms\": [\n");
        for (i, o) in self.outcomes.iter().enumerate() {
            let mut attempts = String::new();
            for (k, a) in o.attempts.iter().enumerate() {
                attempts.push_str(&format!(
                    "{{\"wall_ms\": {}, \"conflicts\": {}, \"outcome\": \"{}\"}}{}",
                    a.wall.as_millis(),
                    a.conflicts,
                    json_escape(&a.outcome),
                    if k + 1 == o.attempts.len() { "" } else { ", " },
                ));
            }
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"verdict\": \"{}\", \"reason\": \"{}\", \
                 \"wall_ms\": {}, \"conflicts\": {}, \"propagations\": {}, \
                 \"decisions\": {}, \"restarts\": {}, \"ef_rounds\": {}, \
                 \"queries\": {}, \"typings\": {}, \"retries\": {}, \"worker\": {}, \
                 \"resumed\": {}, \"phases\": {{\"typeck_us\": {}, \"encode_us\": {}, \
                 \"solve_us\": {}, \"check_us\": {}}}, \"attempts\": [{}]}}{}\n",
                json_escape(&o.name),
                o.kind.as_str(),
                json_escape(&o.detail),
                o.wall.as_millis(),
                o.conflicts,
                o.propagations,
                o.decisions,
                o.restarts,
                o.ef_rounds,
                o.queries,
                o.typings,
                o.retries,
                o.worker,
                o.resumed,
                o.phases.typeck.as_micros(),
                o.phases.encode.as_micros(),
                o.phases.solve.as_micros(),
                o.phases.check.as_micros(),
                attempts,
                if i + 1 == self.outcomes.len() {
                    ""
                } else {
                    ","
                },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Should an `Unknown` with this reason be retried at a larger budget?
///
/// Conflict exhaustion and the CEGIS iteration limit are worth a second,
/// bigger attempt. Deadline exhaustion is not — re-arming the same timeout
/// would just spend it again. Neither are cancellation, injected faults,
/// or internal errors. This is the one retry policy.
fn is_retryable_reason(reason: &str) -> bool {
    (reason.contains("budget exhausted") || reason.contains("iteration limit"))
        && !reason.contains("cancelled")
        && !reason.contains("injected")
        && !reason.contains("internal error")
}

/// Verifies `t` once under the given budget, starting at `at`, with the
/// driver-level panic boundary (covering validation and type enumeration,
/// which sit outside the verifier's own per-typing isolation).
fn attempt(
    t: &Transform,
    config: &DriverConfig,
    budget: Budget,
    at: &mut CheckPoint,
) -> (Verdict, VerifyStats, Vec<Certificate>) {
    let mut vc = config.verify.clone();
    vc.ef.budget = budget;
    let caught = catch_unwind(AssertUnwindSafe(|| {
        verify_impl(t, &vc, config.with_certificates, at)
    }));
    match caught {
        Ok(Ok((verdict, stats, certs))) => (verdict, stats, certs),
        Ok(Err(e)) => (
            Verdict::Unknown {
                reason: format!("error: {}", e.message),
            },
            VerifyStats::default(),
            Vec::new(),
        ),
        Err(payload) => (
            Verdict::Unknown {
                reason: format!("internal error: {}", panic_message(payload.as_ref())),
            },
            VerifyStats::default(),
            Vec::new(),
        ),
    }
}

/// Verifies one transform end to end: escalating-retry loop (each retry
/// resuming at the condition the previous attempt ran out on), per-attempt
/// budgets, attempt history. `cancel` is the token the attempt budgets
/// poll — the driver's own token in sequential runs, a per-task token in
/// supervised runs (so the watchdog can cut down one task without
/// cancelling its siblings). `scale` multiplies the configured conflict
/// budget and timeout (used to escalate entries `--resume` requeues).
/// `on_attempt` is invoked with each attempt's absolute deadline just
/// before the attempt starts; the pool's watchdog uses it to know when a
/// worker is overdue.
pub(crate) fn verify_one(
    name: &str,
    t: &Transform,
    config: &DriverConfig,
    cancel: &CancelToken,
    scale: u32,
    worker: u32,
    mut on_attempt: impl FnMut(Option<Instant>),
) -> TransformOutcome {
    let start = Instant::now();
    let mut retries = 0u32;
    let mut totals = VerifyStats::default();
    let timeout = config.timeout.map(|d| d.saturating_mul(scale.max(1)));
    let mut budget_conflicts = config
        .conflict_budget
        .map(|c| c.saturating_mul(u64::from(scale.max(1))));
    let mut attempts: Vec<Attempt> = Vec::new();
    let mut certificates = Vec::new();
    let mut at = CheckPoint::default();
    loop {
        let attempt_start = Instant::now();
        let deadline = timeout.and_then(|d| attempt_start.checked_add(d));
        on_attempt(deadline);
        // The attempt's budget: an absolute deadline, the (possibly
        // escalated) conflict limit, and the given cancel token.
        let budget = Budget {
            deadline,
            conflicts: budget_conflicts,
            cancel: Some(cancel.clone()),
        };
        let (verdict, stats, attempt_certificates) = attempt(t, config, budget, &mut at);
        totals.add_attempt(&stats);
        certificates.extend(attempt_certificates);
        let (kind, detail) = match &verdict {
            Verdict::Valid { .. } => (OutcomeKind::Valid, verdict.to_string()),
            Verdict::Invalid(_) => (OutcomeKind::Invalid, verdict.to_string()),
            Verdict::Unknown { reason } => {
                if let Some(rest) = reason.strip_prefix("error: ") {
                    (OutcomeKind::Error, rest.to_string())
                } else {
                    (OutcomeKind::Unknown, reason.clone())
                }
            }
        };
        attempts.push(Attempt {
            wall: attempt_start.elapsed(),
            conflicts: stats.sat.conflicts,
            outcome: match kind {
                OutcomeKind::Unknown => format!("unknown: {detail}"),
                k => k.as_str().to_string(),
            },
        });
        if kind == OutcomeKind::Unknown
            && retries < config.max_retries
            && budget_conflicts.is_some()
            && is_retryable_reason(&detail)
            && !cancel.is_cancelled()
        {
            retries += 1;
            budget_conflicts =
                budget_conflicts.map(|c| c.saturating_mul(config.retry_multiplier.max(2)));
            continue;
        }
        return TransformOutcome {
            name: name.to_string(),
            kind,
            detail,
            certificates,
            wall: start.elapsed(),
            conflicts: totals.sat.conflicts,
            propagations: totals.sat.propagations,
            decisions: totals.sat.decisions,
            restarts: totals.sat.restarts,
            ef_rounds: totals.ef_rounds,
            phases: totals.phases,
            queries: totals.queries,
            typings: totals.typings,
            retries,
            worker,
            resumed: false,
            attempts,
        };
    }
}

/// Verifies a single transform under the full resilient-driver treatment
/// (budgets, panic isolation, escalating retries) and returns its outcome.
/// This is the per-request entry point `alive serve` uses on a cache miss;
/// batch runs should prefer [`run_transforms`] or the supervised pool.
pub fn verify_single(name: &str, t: &Transform, config: &DriverConfig) -> TransformOutcome {
    verify_one(name, t, config, &config.cancel, 1, 0, |_| {})
}

/// Runs the whole corpus through the resilient driver.
///
/// Transforms are verified in order. Budget-exhausted transforms are
/// retried with an escalated conflict budget (up to
/// [`DriverConfig::max_retries`] times). Without
/// [`DriverConfig::keep_going`], the first invalid transform or hard error
/// stops the run, reporting the remainder as skipped; cancellation always
/// stops it, and the report says so.
pub fn run_transforms(transforms: &[(String, Transform)], config: &DriverConfig) -> RunReport {
    run_transforms_with(transforms, config, |_, _| {})
}

/// Like [`run_transforms`], invoking `observer` with each transform's index
/// and outcome as soon as it is decided (for incremental CLI output).
pub fn run_transforms_with(
    transforms: &[(String, Transform)],
    config: &DriverConfig,
    mut observer: impl FnMut(usize, &TransformOutcome),
) -> RunReport {
    let mut report = RunReport::default();
    for (i, (name, t)) in transforms.iter().enumerate() {
        if config.cancel.is_cancelled() {
            report.cancelled = true;
            report.skipped = transforms.len() - i;
            return report;
        }

        let outcome = verify_one(name, t, config, &config.cancel, 1, 0, |_| {});

        let kind = outcome.kind;
        let was_cancelled = config.cancel.is_cancelled()
            && kind == OutcomeKind::Unknown
            && outcome.detail.contains("cancelled");
        observer(i, &outcome);
        report.outcomes.push(outcome);

        if was_cancelled {
            report.cancelled = true;
            report.skipped = transforms.len() - i - 1;
            return report;
        }
        if !config.keep_going && matches!(kind, OutcomeKind::Invalid | OutcomeKind::Error) {
            report.skipped = transforms.len() - i - 1;
            return report;
        }
    }
    report
}
