//! The refinement checker (paper §3.1.2 and §3.3.2).
//!
//! For every feasible type assignment, four conditions are discharged by
//! refutation:
//!
//! 1. `∀I,P,Ū ∃U : ψ ⇒ δ̄` — target defined wherever the source is;
//! 2. `∀I,P,Ū ∃U : ψ ⇒ ρ̄` — target poison-free wherever the source is;
//! 3. `∀I,P,Ū ∃U : ψ ⇒ ι = ῑ` — equal root values;
//! 4. (memory) equal final memories at every address outside the source's
//!    stack allocations.
//!
//! Each negated condition is `∃(I,P,Ū) ∀U : ψ ∧ ¬goal`: quantifier-free
//! when the source has no `undef` (one SAT call), otherwise an
//! exists-forall query solved by the CEGIS loop in [`alive_smt`].

use crate::counterexample::{build_counterexample, Counterexample, FailureKind};
use alive_ir::{validate, Transform};
use alive_proof::{Certificate, CertificateMeta, Step};
use alive_smt::{
    eval, solve_exists_forall, substitute, substitute_with, Assignment, BvVal, EfConfig, EfResult,
    EfStop, EvalError, Exhaustion, Op, ProofEvent, ProofTranscript, SolverStats, Sort, TermId,
    TermPool, Value,
};
use alive_typeck::{enumerate_typings, TypeAssignment, TypeckConfig};
use alive_vcgen::{encode_transform, TransformEnc};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The overall outcome of verifying one transformation.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Proven correct for all checked type assignments.
    Valid {
        /// Number of type assignments checked.
        typings_checked: usize,
    },
    /// A counterexample was found.
    Invalid(Box<Counterexample>),
    /// No conclusion was reached.
    Unknown {
        /// Where verification stopped, and why.
        reason: UnknownReason,
    },
}

/// Why a verification stopped without a verdict. Rendered (by `Display`)
/// only where it is shown; decisions match on the variant.
#[derive(Clone, Debug, PartialEq)]
pub enum UnknownReason {
    /// The solver stopped while discharging a refinement condition.
    Solver {
        /// The condition being discharged.
        check: FailureKind,
        /// Where in the exists-forall query it stopped, and why.
        stop: EfStop,
    },
    /// A counterexample to the condition failed concrete re-validation.
    Revalidation(FailureKind),
    /// Verification panicked: a defect in the stack, or an injected fault.
    Panic {
        /// The typing (in enumeration order) and the condition being
        /// checked, when the panic came after typing enumeration.
        at: Option<(usize, FailureKind)>,
        /// The panic payload.
        message: String,
    },
}

impl UnknownReason {
    /// The budget limit that stopped the solver, if one did.
    pub fn exhaustion(&self) -> Option<Exhaustion> {
        let UnknownReason::Solver { stop, .. } = self else {
            return None;
        };
        match *stop {
            EfStop::QuantifierFree(e)
            | EfStop::Round(_, e)
            | EfStop::CandidateSearch(e)
            | EfStop::CounterexampleSearch(e) => Some(e),
            EfStop::IterationLimit(_) => None,
        }
    }
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownReason::Solver { check, stop } => write!(f, "{check} check: {stop}"),
            UnknownReason::Revalidation(check) => write!(
                f,
                "{check} counterexample failed concrete re-validation (possible solver defect)"
            ),
            UnknownReason::Panic { at, message } => {
                f.write_str("internal error: ")?;
                if let Some((typing, check)) = at {
                    write!(f, "panic in typing {typing} at the {check} check: ")?;
                }
                f.write_str(message)
            }
        }
    }
}

impl Verdict {
    /// Is the transformation proven correct?
    pub fn is_valid(&self) -> bool {
        matches!(self, Verdict::Valid { .. })
    }

    /// Is the transformation proven incorrect?
    pub fn is_invalid(&self) -> bool {
        matches!(self, Verdict::Invalid(_))
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Valid { typings_checked } => {
                write!(
                    f,
                    "Optimization is correct ({typings_checked} type assignments)"
                )
            }
            Verdict::Invalid(cex) => write!(f, "{cex}"),
            Verdict::Unknown { reason } => write!(f, "Verification inconclusive: {reason}"),
        }
    }
}

/// Errors before verification can even start (parse/validate/type).
#[derive(Clone, Debug)]
pub struct VerifyError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verification error: {}", self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Configuration for the verifier.
#[derive(Clone, Debug, Default)]
pub struct VerifyConfig {
    /// Type enumeration settings.
    pub typeck: TypeckConfig,
    /// CEGIS settings for `undef`-bearing sources.
    pub ef: EfConfig,
}

impl VerifyConfig {
    /// Fast profile (widths 4 and 8) used by corpus-scale runs.
    pub fn fast() -> VerifyConfig {
        VerifyConfig {
            typeck: TypeckConfig::fast(),
            ef: EfConfig::default(),
        }
    }
}

/// Wall time spent in each verification phase, summed across typings.
///
/// The phases partition one verification end to end: type enumeration,
/// term encoding (templates, ψ, check matrices), solving (quantifier-free
/// SAT or the CEGIS loop), and counterexample re-validation/construction.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Enumerating feasible type assignments.
    pub typeck: Duration,
    /// Encoding templates and refinement-check matrices.
    pub encode: Duration,
    /// Discharging the checks (SAT/CEGIS).
    pub solve: Duration,
    /// Concretely re-validating and rendering counterexamples.
    pub check: Duration,
}

impl PhaseTimes {
    /// Accumulates another measurement (used when merging attempts).
    pub fn absorb(&mut self, other: &PhaseTimes) {
        self.typeck += other.typeck;
        self.encode += other.encode;
        self.solve += other.solve;
        self.check += other.check;
    }
}

/// Per-condition timing and statistics for one verification.
#[derive(Clone, Debug, Default)]
pub struct VerifyStats {
    /// Number of type assignments examined: the position of the last one
    /// reached, so typings an earlier attempt already passed count too.
    pub typings: usize,
    /// Total SMT/SAT queries issued (at least; CEGIS rounds count once per
    /// candidate/verify pair).
    pub queries: usize,
    /// SAT counters summed across every query.
    pub sat: SolverStats,
    /// CEGIS refinement rounds across every query (0 when every source was
    /// `undef`-free).
    pub ef_rounds: u64,
    /// Where the wall time went.
    pub phases: PhaseTimes,
}

impl VerifyStats {
    /// Folds one attempt of a retried verification into these totals:
    /// counters and phase times add up, while `typings` is the last
    /// attempt's (a position, already counting the typings before it).
    pub(crate) fn add_attempt(&mut self, a: &VerifyStats) {
        self.typings = a.typings;
        self.queries += a.queries;
        self.sat += a.sat;
        self.ef_rounds += a.ef_rounds;
        self.phases.absorb(&a.phases);
    }
}

/// Verifies a transformation across all feasible type assignments.
///
/// # Errors
///
/// Returns [`VerifyError`] when the transformation is ill-formed,
/// ill-typed, or uses unsupported constructs.
pub fn verify(t: &Transform, config: &VerifyConfig) -> Result<Verdict, VerifyError> {
    verify_impl(t, config, false, &mut CheckPoint::default()).map(|(v, _, _)| v)
}

/// Like [`verify`], also returning statistics and one refinement
/// [`Certificate`] per condition discharged by refutation.
///
/// Certificates are produced only for conditions the SAT solver actually
/// refuted, so a `Valid` verdict over `n` typings comes with `3n` (or `4n`
/// with memory operations) certificates; `Invalid`/`Unknown` verdicts carry
/// the certificates of the conditions that passed before the failing one.
/// Each certificate ties the refuting proof to the transform name, the
/// concrete type assignment, and the refinement condition, and re-checking
/// it needs only the independent `alive-proof` checker.
///
/// # Errors
///
/// Returns [`VerifyError`] when the transformation is ill-formed,
/// ill-typed, or uses unsupported constructs.
pub fn verify_with_certificates(
    t: &Transform,
    config: &VerifyConfig,
) -> Result<(Verdict, VerifyStats, Vec<Certificate>), VerifyError> {
    verify_impl(t, config, true, &mut CheckPoint::default())
}

/// A position in the order conditions are checked in: a typing (in
/// enumeration order) and one of its refinement conditions (an index into
/// [`CONDITIONS`]).
///
/// An attempt that ends Unknown leaves its checkpoint at the condition
/// that ran out. Every condition before it was refuted, and a larger
/// budget would only refute it again by the same search, so a retry
/// starts there.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CheckPoint {
    pub(crate) typing: usize,
    pub(crate) condition: usize,
}

/// The refinement conditions, in the order each typing checks them (the
/// memory condition only with memory operations).
const CONDITIONS: [FailureKind; 4] = [
    FailureKind::Definedness,
    FailureKind::Poison,
    FailureKind::ValueMismatch,
    FailureKind::MemoryMismatch,
];

/// Renders a panic payload for an `Unknown` reason.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload.downcast_ref::<&str>().copied();
    let text = text.or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    text.unwrap_or("non-string panic payload").to_string()
}

/// The one verification entry: statistics always, certificates (one per
/// refuted condition) only when `want_certificates` is set. Checking starts
/// at `at` and leaves it at the last condition checked.
///
/// This is the one panic boundary: a defect anywhere in validation, typing
/// enumeration, encoding, solving or counterexample construction degrades
/// the verdict to Unknown instead of tearing down the caller. The
/// statistics and certificates live outside it, so everything refuted
/// before the panic is kept, and the checkpoint names where it came.
pub(crate) fn verify_impl(
    t: &Transform,
    config: &VerifyConfig,
    want_certificates: bool,
    at: &mut CheckPoint,
) -> Result<(Verdict, VerifyStats, Vec<Certificate>), VerifyError> {
    let mut stats = VerifyStats::default();
    let mut certificates = Vec::new();
    let checked = catch_unwind(AssertUnwindSafe(|| {
        check_typings(
            t,
            config,
            &mut stats,
            want_certificates.then_some(&mut certificates),
            at,
        )
    }));
    let verdict = match checked {
        Ok(verdict) => verdict?,
        Err(payload) => Verdict::Unknown {
            reason: UnknownReason::Panic {
                // `typings` is set as each typing's check begins.
                at: (stats.typings > 0).then(|| (at.typing, CONDITIONS[at.condition])),
                message: panic_message(payload.as_ref()),
            },
        },
    };
    Ok((verdict, stats, certificates))
}

/// Validates `t`, enumerates its typings and checks each from `at` on.
fn check_typings(
    t: &Transform,
    config: &VerifyConfig,
    stats: &mut VerifyStats,
    mut certificates: Option<&mut Vec<Certificate>>,
    at: &mut CheckPoint,
) -> Result<Verdict, VerifyError> {
    // The tracer travels inside the CEGIS config so one installation covers
    // the whole stack (driver phases here, blasting and SAT below).
    let tracer = config.ef.tracer.clone();
    validate(t).map_err(|e| VerifyError {
        message: e.to_string(),
    })?;
    let typeck_start = Instant::now();
    let typings = {
        let _span = tracer.span("typeck");
        enumerate_typings(t, &config.typeck)
    }
    .map_err(|e| VerifyError {
        message: e.to_string(),
    })?;
    stats.phases.typeck += typeck_start.elapsed();
    let transform_name = t.name.clone().unwrap_or_else(|| "<unnamed>".to_string());

    let first = at.typing;
    for (typing_idx, typing) in typings.iter().enumerate().skip(first) {
        stats.typings = typing_idx + 1;
        if typing_idx > first {
            *at = CheckPoint {
                typing: typing_idx,
                condition: 0,
            };
        }
        let _typing_span = tracer.span_with("typing", || typing_idx.to_string());
        if let Some(v) = check_one_typing(
            t,
            typing,
            config,
            &transform_name,
            stats,
            certificates.as_deref_mut(),
            &mut at.condition,
        )? {
            return Ok(v);
        }
    }
    Ok(Verdict::Valid {
        typings_checked: typings.len(),
    })
}

/// Checks one type assignment's conditions from `condition` on: `None`
/// when every one was refuted, else the verdict (Invalid or Unknown).
fn check_one_typing(
    t: &Transform,
    typing: &TypeAssignment,
    config: &VerifyConfig,
    transform_name: &str,
    stats: &mut VerifyStats,
    mut certificates: Option<&mut Vec<Certificate>>,
    condition: &mut usize,
) -> Result<Option<Verdict>, VerifyError> {
    let tracer = config.ef.tracer.clone();
    let encode_start = Instant::now();
    let encode_span = tracer.span("encode");
    let mut pool = TermPool::new();
    let enc = encode_transform(&mut pool, t, typing).map_err(|e| VerifyError {
        message: e.to_string(),
    })?;
    let psi = enc.psi(&mut pool);

    let root = enc.root.clone();
    let tgt_def = enc.tgt.defined[&root];
    let tgt_poison = enc.tgt.poison_free[&root];
    let src_val = enc.src.values[&root];
    let tgt_val = enc.tgt.values[&root];

    let mut exist_vars = enc.exist_vars();
    exist_vars.extend(enc.tgt.undefs.iter().copied());
    let univ_vars: Vec<TermId> = enc.src.undefs.clone();

    // The negated conditions 1–3 share the existential variables; the
    // memory condition adds the quantified address. Each is ψ ∧ Q with Q
    // simplified under ψ: every conjunct of ψ inside Q becomes `true`, and
    // a guarded law's recorded rewrite of a term in Q is taken where ψ
    // asserts its guard.
    // Under ψ each conjunct and each such guard holds, so ψ ∧ Q keeps its
    // value at every assignment, the universal `undef` variables included
    // (Z3's `ctx-simplify` and Bitwuzla's preprocessing make rewrites of
    // this class), and a taken rewrite's plain operator never reaches the
    // blaster.
    // Each check keeps its unsimplified ψ ∧ Q for the concrete
    // re-validation of a model, so no rewrite here can make an Invalid.
    let mut under_psi = Assumptions::new(&mut pool, psi);
    let mut simplified = 0;
    let mut checks: Vec<(FailureKind, TermId, TermId, Vec<TermId>)> = {
        let mut negated = |pool: &mut TermPool, kind: FailureKind, q: TermId| {
            let assumed = under_psi.apply(pool, q);
            simplified += u64::from(assumed != q);
            let matrix = pool.and2(psi, assumed);
            let original = pool.and2(psi, q);
            (kind, matrix, original, exist_vars.clone())
        };
        let not_def = pool.not(tgt_def);
        let c1 = negated(&mut pool, FailureKind::Definedness, not_def);
        let not_poison = pool.not(tgt_poison);
        let c2 = negated(&mut pool, FailureKind::Poison, not_poison);
        let neq = pool.ne(src_val, tgt_val);
        let c3 = negated(&mut pool, FailureKind::ValueMismatch, neq);
        vec![c1, c2, c3]
    };
    if enc.src.memory.has_ops || enc.tgt.memory.has_ops {
        let (matrix, evars) = memory_check_matrix(&mut pool, &enc, &exist_vars);
        checks.push((FailureKind::MemoryMismatch, matrix, matrix, evars));
    }
    drop(encode_span);
    stats.phases.encode += encode_start.elapsed();

    let want_proof = certificates.is_some();
    let outcome = (|| {
        let first = *condition;
        for (idx, (kind, matrix, original, evars)) in checks.into_iter().enumerate().skip(first) {
            *condition = idx;
            stats.queries += 1;
            let solve_start = Instant::now();
            let outcome = solve_exists_forall(
                &mut pool, &evars, &univ_vars, matrix, &config.ef, want_proof,
            );
            stats.phases.solve += solve_start.elapsed();
            stats.sat += outcome.sat;
            stats.ef_rounds += outcome.rounds as u64;
            match outcome.result {
                EfResult::Unsat => {
                    if let (Some(certs), Some(transcript)) =
                        (certificates.as_deref_mut(), outcome.transcript)
                    {
                        certs.push(certificate_from_transcript(
                            transform_name,
                            &typing.summary(),
                            kind,
                            transcript,
                        ));
                    }
                }
                EfResult::Sat(model) => {
                    // Dual-check: a counterexample is only reported after the
                    // reference evaluator concretely reproduces the failure,
                    // so a SAT-solver or bit-blaster bug cannot manufacture
                    // a bogus Invalid verdict.
                    let check_start = Instant::now();
                    let _span = tracer.span("check-model");
                    if !revalidate_model(&pool, original, &model, &univ_vars) {
                        stats.phases.check += check_start.elapsed();
                        return Ok(Some(Verdict::Unknown {
                            reason: UnknownReason::Revalidation(kind),
                        }));
                    }
                    let cex = build_counterexample(&pool, t, &enc, &model, kind, typing.summary());
                    stats.phases.check += check_start.elapsed();
                    return Ok(Some(Verdict::Invalid(Box::new(cex))));
                }
                EfResult::Unknown(stop) => {
                    return Ok(Some(Verdict::Unknown {
                        reason: UnknownReason::Solver { check: kind, stop },
                    }));
                }
            }
        }
        Ok(None)
    })();
    // Equalities the ring normal form decided and terms the operator
    // table's laws rewrote while encoding or solving: what explains a
    // condition refuted without SAT search, or with less of it.
    tracer.counter("smt.ring_folds", pool.ring_folds());
    tracer.counter("smt.psi_simplified", simplified);
    for (&law, &n) in pool.law_firings() {
        tracer.counter_with("smt.laws", || law.to_string(), n);
    }
    for (&law, &n) in &under_psi.taken {
        tracer.counter_with("smt.psi_laws", || law.to_string(), n);
    }
    outcome
}

/// What ψ lets a negated condition drop: each top-level conjunct of ψ
/// becomes `true`, and a term with a guarded law's recorded rewrite becomes
/// that rewrite's right-hand side, with the conjuncts replaced there too,
/// where the guard is `true` once the conjuncts are.
struct Assumptions {
    holds: HashMap<TermId, TermId>,
    /// The terms with recorded rewrites the conditions reached, and what
    /// each became (`None`: ψ asserts none of their guards).
    rewritten: HashMap<TermId, Option<TermId>>,
    /// The terms rewritten, by law.
    taken: BTreeMap<&'static str, u64>,
}

impl Assumptions {
    fn new(pool: &mut TermPool, psi: TermId) -> Self {
        let conjuncts = match &pool.term(psi).op {
            Op::And(cs) => cs.clone(),
            Op::BoolConst(_) => vec![],
            _ => vec![psi],
        };
        let tru = pool.tru();
        Assumptions {
            holds: conjuncts.into_iter().map(|c| (c, tru)).collect(),
            rewritten: HashMap::new(),
            taken: BTreeMap::new(),
        }
    }

    /// `q` simplified under ψ; `q` itself when nothing in it changes. A
    /// rewrite's right-hand side is built only when it is taken.
    fn apply(&mut self, pool: &mut TermPool, q: TermId) -> TermId {
        if self.holds.is_empty() {
            return q;
        }
        let Assumptions {
            holds,
            rewritten,
            taken,
        } = self;
        substitute_with(pool, q, |pool, t| {
            if let Some(&r) = holds.get(&t) {
                return Some(r);
            }
            if let Some(&r) = rewritten.get(&t) {
                return r;
            }
            let rewrites = pool.guarded_rewrites(t).to_vec();
            if rewrites.is_empty() {
                return None;
            }
            let tru = pool.tru();
            let taken_rewrite = rewrites
                .into_iter()
                .find(|r| substitute(pool, r.guard, holds) == tru);
            let r = taken_rewrite.map(|rewrite| {
                *taken.entry(rewrite.law.name).or_insert(0) += 1;
                let rhs = pool.rewrite_rhs(&rewrite);
                substitute(pool, rhs, holds)
            });
            rewritten.insert(t, r);
            r
        })
    }
}

/// Converts an SMT-layer DRAT transcript into a metadata-carrying
/// certificate (the only place the solver's event types meet the checker's
/// step types).
fn certificate_from_transcript(
    transform: &str,
    typing: &str,
    kind: FailureKind,
    transcript: ProofTranscript,
) -> Certificate {
    let steps = transcript
        .events
        .into_iter()
        .map(|e| match e {
            ProofEvent::Original(c) => Step::Add(c),
            ProofEvent::Learned(c) => Step::Learn(c),
            ProofEvent::Deleted(c) => Step::Delete(c),
        })
        .collect();
    Certificate {
        meta: CertificateMeta {
            transform: transform.to_string(),
            typing: typing.to_string(),
            check: check_label(kind).to_string(),
        },
        num_vars: transcript.num_vars,
        steps,
    }
}

/// Stable label for a refinement condition in certificate metadata.
fn check_label(kind: FailureKind) -> &'static str {
    match kind {
        FailureKind::Definedness => "definedness",
        FailureKind::Poison => "poison",
        FailureKind::ValueMismatch => "value",
        FailureKind::MemoryMismatch => "memory",
    }
}

/// Concretely re-evaluates `matrix` under a counterexample model with the
/// reference evaluator.
///
/// Universal variables (source `undef`s) are instantiated at both all-zeros
/// and all-ones: an `EfResult::Sat` model claims the failure manifests for
/// *every* universal choice, so both instantiations must evaluate to true.
/// Model gaps (variables never blasted) default to zero, mirroring
/// `SmtSolver::model_bv`.
fn revalidate_model(
    pool: &TermPool,
    matrix: TermId,
    model: &Assignment,
    univ_vars: &[TermId],
) -> bool {
    let instantiations: &[bool] = if univ_vars.is_empty() {
        &[false]
    } else {
        &[false, true]
    };
    for &ones in instantiations {
        let mut env = model.clone();
        for &u in univ_vars {
            match pool.sort(u) {
                Sort::Bool => env.set(u, ones),
                Sort::BitVec(w) => env.set(u, if ones { BvVal::ones(w) } else { BvVal::zero(w) }),
            }
        }
        if !eval_defaulting_unbound(pool, matrix, env) {
            return false;
        }
    }
    true
}

/// Evaluates a boolean term, binding any unbound variable to zero/false
/// (the SMT layer's own completion for unconstrained model variables).
fn eval_defaulting_unbound(pool: &TermPool, root: TermId, mut env: Assignment) -> bool {
    // Each retry binds one more variable, so this terminates.
    loop {
        match eval(pool, root, &env) {
            Ok(Value::Bool(b)) => return b,
            Ok(Value::Bv(_)) => return false, // not a boolean matrix: reject
            Err(EvalError::UnboundVar(id, _)) => match pool.sort(id) {
                Sort::Bool => env.set(id, false),
                Sort::BitVec(w) => env.set(id, BvVal::zero(w)),
            },
        }
    }
}

/// Builds the negated memory condition: some address (outside the source's
/// stack allocations) holds different bytes in the two final memories while
/// the precondition and allocation constraints hold. Returns the matrix and
/// the existential variables extended with the quantified address and the
/// initial-memory byte there.
fn memory_check_matrix(
    pool: &mut TermPool,
    enc: &TransformEnc,
    exist_vars: &[TermId],
) -> (TermId, Vec<TermId>) {
    let pw = enc.ptr_width;
    let addr = pool.var("mem.addr", Sort::BitVec(pw));

    // The templates' reads of the initial memory: the byte at `addr` is
    // the byte they read wherever the addresses agree.
    let mut base = enc.base_mem.clone();
    let src_byte = enc.src.memory.read_byte(pool, &mut base, addr);
    let tgt_byte = enc.tgt.memory.read_byte(pool, &mut base, addr);
    let differs = pool.ne(src_byte, tgt_byte);

    let mut parts = vec![enc.pre, differs];
    parts.extend(enc.src.alloca_constraints.iter().copied());
    parts.extend(enc.tgt.alloca_constraints.iter().copied());
    parts.extend(base.constraints().iter().copied());
    // Stack memory is private to the templates: exempt source allocations.
    for &(base_ptr, size) in enc
        .src
        .alloca_regions
        .iter()
        .chain(enc.tgt.alloca_regions.iter())
    {
        let size_t = pool.bv(pw, size as u128);
        let end = pool.bv_add(base_ptr, size_t);
        let below = pool.bv_ult(addr, base_ptr);
        let above = pool.bv_uge(addr, end);
        let outside = pool.or2(below, above);
        parts.push(outside);
    }
    let matrix = pool.and(parts);

    let mut evars = exist_vars.to_vec();
    evars.push(addr);
    let fresh = &base.reads()[enc.base_mem.reads().len()..];
    evars.extend(fresh.iter().map(|&(_, byte)| byte));
    (matrix, evars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive_ir::parse_transform;

    fn check(src: &str) -> Verdict {
        let t = parse_transform(src).unwrap();
        verify(&t, &VerifyConfig::default()).unwrap()
    }

    #[test]
    fn intro_example_is_valid() {
        let v = check("%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C-1, %x");
        assert!(v.is_valid(), "{v}");
    }

    #[test]
    fn wrong_constant_is_invalid() {
        let v = check("%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C, %x");
        assert!(v.is_invalid(), "{v}");
        if let Verdict::Invalid(cex) = &v {
            assert_eq!(cex.kind, FailureKind::ValueMismatch);
        }
    }

    #[test]
    fn nsw_comparison_folds_to_true() {
        // (x +nsw 1) > x  ==>  true   (paper §2.4)
        let v = check("%1 = add nsw %x, 1\n%2 = icmp sgt %1, %x\n=>\n%2 = true");
        assert!(v.is_valid(), "{v}");
    }

    #[test]
    fn without_nsw_the_same_fold_is_invalid() {
        let v = check("%1 = add %x, 1\n%2 = icmp sgt %1, %x\n=>\n%2 = true");
        assert!(v.is_invalid(), "{v}");
    }

    #[test]
    fn select_undef_example_is_valid() {
        // Paper §3.1.3: ∀u2 ∃u1 — target ashr of undef by 3 yields 0 or -1
        // patterns the source select can also produce.
        let v = check("%r = select undef, i4 -1, 0\n=>\n%r = ashr undef, 3");
        assert!(v.is_valid(), "{v}");
    }

    #[test]
    fn undef_source_cannot_become_arbitrary_target() {
        // Source `or 1, undef` is always odd; target undef can be even.
        let v = check("%r = or i4 1, undef\n=>\n%r = undef");
        assert!(v.is_invalid(), "{v}");
    }

    #[test]
    fn target_introducing_division_is_less_defined() {
        let v = check("%r = add %x, %y\n=>\n%d = sdiv %x, %y\n%m = mul %d, %y\n%rem = srem %x, %y\n%s = add %m, %rem\n%r = add %s, 0");
        // x + y != (x/y)*y + x%y + 0 in general... actually it is equal when
        // defined; the bug is definedness (y = 0). Either failure is a
        // rejection.
        assert!(v.is_invalid(), "{v}");
        if let Verdict::Invalid(cex) = &v {
            assert_eq!(cex.kind, FailureKind::Definedness);
        }
    }

    #[test]
    fn poison_introduction_is_caught() {
        // Adding nsw on the target where the source had none.
        let v = check("%r = add %x, %y\n=>\n%r = add nsw %x, %y");
        assert!(v.is_invalid(), "{v}");
        if let Verdict::Invalid(cex) = &v {
            assert_eq!(cex.kind, FailureKind::Poison);
        }
    }

    #[test]
    fn dropping_nsw_is_allowed() {
        let v = check("%r = add nsw %x, %y\n=>\n%r = add %x, %y");
        assert!(v.is_valid(), "{v}");
    }

    #[test]
    fn precondition_gates_validity() {
        // shl by C1 equals mul by (1<<C1); with the precondition C1 == 1,
        // x << 1 == x + x.
        let v = check("Pre: C1 == 1\n%r = shl %x, C1\n=>\n%r = add %x, %x");
        assert!(v.is_valid(), "{v}");
        // Without the precondition this is wrong.
        let v2 = check("%r = shl %x, C1\n=>\n%r = add %x, %x");
        assert!(v2.is_invalid(), "{v2}");
    }

    #[test]
    fn division_by_zero_ub_enables_rewrite() {
        // udiv x, x == 1 is justified because x==0 is UB in the source.
        let v = check("%r = udiv %x, %x\n=>\n%r = 1");
        assert!(v.is_valid(), "{v}");
    }

    #[test]
    fn memory_store_load_forwarding_valid() {
        let v = check("store %v, %p\n%r = load %p\n=>\nstore %v, %p\n%r = %v");
        assert!(v.is_valid(), "{v}");
    }

    #[test]
    fn memory_dropping_a_store_is_invalid() {
        let v = check("store %v, %p\n%r = load %p\n=>\n%r = %v");
        assert!(v.is_invalid(), "{v}");
        if let Verdict::Invalid(cex) = &v {
            assert_eq!(cex.kind, FailureKind::MemoryMismatch);
        }
    }

    #[test]
    fn counterexample_carries_bindings() {
        let v = check("%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C, %x");
        let Verdict::Invalid(cex) = v else {
            panic!("expected invalid")
        };
        let names: Vec<&str> = cex.bindings.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"%x"), "{names:?}");
        assert!(names.contains(&"C"), "{names:?}");
        assert!(cex.source_value.is_some());
        assert!(cex.target_value.is_some());
        // Counterexamples are biased to small widths (first in the config).
        assert_eq!(cex.root_width, 4);
    }

    #[test]
    fn storing_a_loaded_byte_back_keeps_the_memory() {
        // The memory condition reads the initial memory at its address
        // through the templates' reads, so the byte stored back is the
        // byte that was there.
        let v =
            check("%v = load i8* %p\nstore %v, %p\n%r = add %v, 0\n=>\n%v = load i8* %p\n%r = %v");
        assert!(v.is_valid(), "{v}");
        let v = check("%v = load i8* %p\n%w = add %v, 1\nstore %w, %p\n%r = add %v, 0\n=>\n%v = load i8* %p\n%r = %v");
        let Verdict::Invalid(cex) = &v else {
            panic!("expected invalid: {v}")
        };
        assert_eq!(cex.kind, FailureKind::MemoryMismatch);
        assert_eq!(cex.memory.len(), 1, "{cex}");
    }

    /// Does a `bvudiv` term occur in `root`?
    fn has_udiv(pool: &TermPool, root: TermId) -> bool {
        let mut stack = vec![root];
        let mut seen = std::collections::HashSet::new();
        while let Some(t) = stack.pop() {
            if matches!(pool.term(t).op, Op::Bv(alive_smt::BvOp::Udiv, ..)) {
                return true;
            }
            if seen.insert(t) {
                stack.extend(pool.term(t).op.children());
            }
        }
        false
    }

    #[test]
    fn the_value_condition_under_psi_has_no_plain_divider() {
        // `udiv-mul` records `udiv (x·y), y → x` under its guard; ψ asserts
        // the guard's conjuncts (`y ≠ 0` and the `mul nuw` form), so under
        // ψ the condition keeps no divider and folds to false.
        let entry = alive_suite::by_name("MulDivRem:MulNuwThenUdiv").unwrap();
        let typings = enumerate_typings(&entry.transform, &TypeckConfig::fast()).unwrap();
        for typing in &typings {
            let mut pool = TermPool::new();
            let enc = encode_transform(&mut pool, &entry.transform, typing).unwrap();
            let psi = enc.psi(&mut pool);
            let neq = pool.ne(enc.src.values[&enc.root], enc.tgt.values[&enc.root]);
            assert!(has_udiv(&pool, neq), "{}", pool.display(neq));
            let assumed = Assumptions::new(&mut pool, psi).apply(&mut pool, neq);
            assert!(!has_udiv(&pool, assumed), "{}", pool.display(assumed));
            assert_eq!(pool.as_bool_const(assumed), Some(false));
        }
    }

    #[test]
    fn a_condition_without_a_conjunct_of_psi_is_kept() {
        let mut pool = TermPool::new();
        let [x, y] = ["x", "y"].map(|n| pool.var(n, Sort::BitVec(8)));
        let zero = pool.bv(8, 0);
        let psi = pool.ne(y, zero);
        let q = pool.bv_ult(x, y);
        let mut under_psi = Assumptions::new(&mut pool, psi);
        let len = pool.len();
        assert_eq!(under_psi.apply(&mut pool, q), q);
        assert_eq!(pool.len(), len, "nothing rebuilt");
        let nq = pool.and2(psi, q);
        assert_eq!(under_psi.apply(&mut pool, nq), q);
    }

    #[test]
    fn a_rewrite_is_taken_only_where_psi_asserts_its_guard() {
        // `udiv x, C` records `lshr x, log2 C` under `isPowerOf2(C)`: with
        // that precondition the value condition folds to false, without it
        // the divider stays and nothing is taken.
        let mut pool = TermPool::new();
        let [x, c] = ["x", "C"].map(|n| pool.var(n, Sort::BitVec(8)));
        let zero = pool.bv(8, 0);
        let defined = pool.ne(c, zero);
        let pow2 = pool.is_power_of_two(c, false);
        let psi = pool.and2(pow2, defined);
        let mut without = Assumptions::new(&mut pool, defined);
        let mut with = Assumptions::new(&mut pool, psi);
        // Terms built after the assumptions are simplified too.
        let q = pool.bv_udiv(x, c);
        let log2 = pool.log2(c);
        let shifted = pool.bv_lshr(x, log2);
        let neq = pool.ne(q, shifted);
        let kept = without.apply(&mut pool, neq);
        assert!(has_udiv(&pool, kept), "{}", pool.display(kept));
        assert!(without.taken.is_empty());
        let assumed = with.apply(&mut pool, neq);
        assert_eq!(pool.as_bool_const(assumed), Some(false));
        assert_eq!(with.taken.get("udiv-pow2"), Some(&1));
        // A rewrite counts where it replaces a term, once per term.
        let rem = pool.bv_urem(x, c);
        assert_eq!(with.apply(&mut pool, neq), assumed);
        assert_eq!(with.taken.len(), 1, "{:?}", with.taken);
        let rem_ne = pool.ne(rem, zero);
        with.apply(&mut pool, rem_ne);
        assert_eq!(with.taken.get("urem-pow2"), Some(&1));
    }

    #[test]
    fn a_product_by_a_power_of_two_is_rewritten_in_either_order() {
        // `mul C, x` with `C` interned first binds `x` as the power of two
        // in one operand order; ψ asserts `isPowerOf2(C)`, the other one.
        let mut pool = TermPool::new();
        let [c, x] = ["C", "x"].map(|n| pool.var(n, Sort::BitVec(8)));
        let psi = pool.is_power_of_two(c, false);
        let product = pool.bv_mul(c, x);
        let log2 = pool.log2(c);
        let shifted = pool.bv_shl(x, log2);
        let neq = pool.ne(product, shifted);
        let mut under_psi = Assumptions::new(&mut pool, psi);
        let assumed = under_psi.apply(&mut pool, neq);
        assert_eq!(
            pool.as_bool_const(assumed),
            Some(false),
            "{}",
            pool.display(assumed)
        );
        assert_eq!(under_psi.taken.get("mul-pow2"), Some(&1));
    }

    #[test]
    fn rebuilding_a_corpus_condition_keeps_its_id() {
        // A substitution that changes nothing below a term keeps the term,
        // so rebuilding each fast-profile condition through an empty map
        // returns it, and builds nothing.
        let mut checked = 0;
        for entry in alive_suite::full_corpus() {
            let Ok(typings) = enumerate_typings(&entry.transform, &TypeckConfig::fast()) else {
                continue;
            };
            for typing in &typings {
                let mut pool = TermPool::new();
                let enc = encode_transform(&mut pool, &entry.transform, typing).unwrap();
                let psi = enc.psi(&mut pool);
                let not_def = pool.not(enc.tgt.defined[&enc.root]);
                let not_poison = pool.not(enc.tgt.poison_free[&enc.root]);
                let neq = pool.ne(enc.src.values[&enc.root], enc.tgt.values[&enc.root]);
                let len = pool.len();
                for q in [psi, not_def, not_poison, neq] {
                    let rebuilt = substitute(&mut pool, q, &HashMap::new());
                    assert_eq!(rebuilt, q, "{}: {}", entry.name, pool.display(q));
                }
                assert_eq!(pool.len(), len, "{}", entry.name);
                checked += 1;
            }
        }
        assert!(checked > 224, "{checked} typings");
    }

    fn check_certified(src: &str) -> (Verdict, VerifyStats, Vec<Certificate>) {
        let t = parse_transform(src).unwrap();
        verify_with_certificates(&t, &VerifyConfig::default()).unwrap()
    }

    #[test]
    fn valid_transform_yields_checked_certificates() {
        let (v, stats, certs) =
            check_certified("%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C-1, %x");
        assert!(v.is_valid(), "{v}");
        // Every refuted condition carries a certificate, one per query.
        assert_eq!(certs.len(), stats.queries);
        assert!(!certs.is_empty());
        for cert in &certs {
            let report = cert
                .check()
                .unwrap_or_else(|e| panic!("certificate for {} failed: {e}", cert.meta.check));
            assert!(report.learned_checked > 0 || report.steps > 0);
            assert_eq!(cert.meta.transform, "<unnamed>");
            assert!(!cert.meta.typing.is_empty());
            assert!(
                ["definedness", "poison", "value", "memory"].contains(&cert.meta.check.as_str()),
                "{}",
                cert.meta.check
            );
        }
        // All three refinement conditions are represented.
        for label in ["definedness", "poison", "value"] {
            assert!(
                certs.iter().any(|c| c.meta.check == label),
                "missing {label} certificate"
            );
        }
    }

    #[test]
    fn memory_transform_yields_memory_certificate() {
        let (v, _, certs) =
            check_certified("store %v, %p\n%r = load %p\n=>\nstore %v, %p\n%r = %v");
        assert!(v.is_valid(), "{v}");
        assert!(certs.iter().any(|c| c.meta.check == "memory"));
        for cert in &certs {
            cert.check().expect("certificate must check");
        }
    }

    #[test]
    fn invalid_transform_keeps_earlier_certificates_checkable() {
        // Value mismatch: definedness and poison certificates for the first
        // typing still exist and must check.
        let (v, _, certs) = check_certified("%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C, %x");
        assert!(v.is_invalid(), "{v}");
        for cert in &certs {
            cert.check().expect("certificate must check");
        }
    }

    #[test]
    fn certificates_round_trip_through_text() {
        let (_, _, certs) =
            check_certified("%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C-1, %x");
        for cert in &certs {
            let text = cert.to_text();
            let parsed = Certificate::parse(&text).expect("round trip parse");
            assert_eq!(&parsed, cert);
            parsed.check().expect("parsed certificate must check");
        }
    }

    #[test]
    fn truncated_certificate_is_rejected() {
        let (_, _, mut certs) =
            check_certified("%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C-1, %x");
        let cert = certs.first_mut().expect("at least one certificate");
        // Drop the final (refuting) learned step: no empty clause remains.
        let last_learn = cert
            .steps
            .iter()
            .rposition(|s| matches!(s, Step::Learn(c) if c.is_empty()))
            .expect("refutation step present");
        cert.steps.truncate(last_learn);
        assert!(cert.check().is_err());
    }

    #[test]
    fn plain_verify_matches_certified_verify() {
        for src in [
            "%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C-1, %x",
            "%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C, %x",
            "%r = add nsw %x, 1\n%2 = icmp sgt %r, %x\n=>\n%2 = true",
        ] {
            let t = parse_transform(src).unwrap();
            let plain = verify(&t, &VerifyConfig::default()).unwrap();
            let (certified, _, _) = verify_with_certificates(&t, &VerifyConfig::default()).unwrap();
            assert_eq!(plain.is_valid(), certified.is_valid(), "{src}");
            assert_eq!(plain.is_invalid(), certified.is_invalid(), "{src}");
        }
    }
}
