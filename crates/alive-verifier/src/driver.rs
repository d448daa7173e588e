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
//! * **panic isolation** — the verifier's one panic boundary turns a panic
//!   anywhere inside verification into an `Unknown` outcome with an
//!   `internal error:` reason instead of aborting the run;
//! * **escalating retries** — transforms whose conflict budget ran out are
//!   re-run with the conflict limit multiplied, so a cheap first pass over
//!   the corpus is followed by a slower second look at the stragglers only;
//!   a retry resumes at the condition that ran out, since every condition
//!   before it is already refuted. The decision matches on the typed
//!   [`UnknownReason`]; its text is rendered only into the report;
//! * **structured reporting** — every transform yields a
//!   [`TransformOutcome`] with verdict, wall time, per-attempt records,
//!   solver counters, and per-phase timings, and the whole run serializes
//!   to JSON ([`RunReport::to_json`], schema `alive-report/v3`) even when
//!   it was cancelled halfway.
//!
//! A corpus runs through the supervised driver (worker pool, watchdog) in
//! [`crate::pool`], which calls [`verify_one`] per task; one transform runs
//! on the caller's thread through [`verify_single`].

use crate::verify::{
    verify_impl, CheckPoint, PhaseTimes, UnknownReason, Verdict, VerifyConfig, VerifyStats,
};
use alive_ir::Transform;
use alive_proof::Certificate;
use alive_smt::{Budget, CancelToken, Exhaustion};
use alive_trace::sealed::json_escape;
use std::time::{Duration, Instant};

/// Settings for the resilient driver.
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
    /// How many escalating retries a transform gets whose conflict budget
    /// ran out: the one stop a larger budget can change (docs/ROBUSTNESS.md §4).
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
    /// Why an `Unknown` verified in this process stopped (`detail` renders
    /// it); `None` for other kinds and for outcomes replayed from a store.
    pub reason: Option<UnknownReason>,
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
            reason: None,
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
        let mut vc = config.verify.clone();
        vc.ef.budget = Budget {
            deadline,
            conflicts: budget_conflicts,
            cancel: Some(cancel.clone()),
        };
        let checked = verify_impl(t, &vc, config.with_certificates, &mut at);
        let (kind, detail, reason, stats) = match checked {
            Ok((verdict, stats, attempt_certificates)) => {
                certificates.extend(attempt_certificates);
                match verdict {
                    Verdict::Valid { .. } => (OutcomeKind::Valid, verdict.to_string(), None, stats),
                    Verdict::Invalid(_) => (OutcomeKind::Invalid, verdict.to_string(), None, stats),
                    Verdict::Unknown { reason } => (
                        OutcomeKind::Unknown,
                        reason.to_string(),
                        Some(reason),
                        stats,
                    ),
                }
            }
            Err(e) => (OutcomeKind::Error, e.message, None, VerifyStats::default()),
        };
        totals.add_attempt(&stats);
        attempts.push(Attempt {
            wall: attempt_start.elapsed(),
            conflicts: stats.sat.conflicts,
            outcome: match kind {
                OutcomeKind::Unknown => format!("unknown: {detail}"),
                k => k.as_str().to_string(),
            },
        });
        // The one retry rule: only a spent conflict budget is worth a
        // bigger attempt.
        let conflicts_ran_out =
            reason.as_ref().and_then(UnknownReason::exhaustion) == Some(Exhaustion::Conflicts);
        if conflicts_ran_out && retries < config.max_retries && !cancel.is_cancelled() {
            retries += 1;
            budget_conflicts =
                budget_conflicts.map(|c| c.saturating_mul(config.retry_multiplier.max(2)));
            continue;
        }
        return TransformOutcome {
            name: name.to_string(),
            kind,
            detail,
            reason,
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
/// batch runs go through the supervised pool.
pub fn verify_single(name: &str, t: &Transform, config: &DriverConfig) -> TransformOutcome {
    verify_one(name, t, config, &config.cancel, 1, 0, |_| {})
}
