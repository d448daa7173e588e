//! Exists-forall solving by counterexample-guided instantiation (CEGIS).
//!
//! The Alive correctness conditions are of the form
//! `∀ inputs, target-undef ∃ source-undef : ok(...)` (paper §3.1.2). Their
//! negation — what we hand to the solver — is `∃ x ∀ u : ¬ok(x, u)`. With
//! no source `undef` variables the formula is quantifier-free and a single
//! SAT call decides it; otherwise this module runs the classic CEGIS loop:
//!
//! 1. guess a candidate `x*` consistent with all universal instantiations
//!    seen so far;
//! 2. check `∃ u : ok(x*, u)`; if none exists, `x*` is a true witness;
//! 3. otherwise add the instantiation `¬ok(x, u*)` and repeat.
//!
//! Termination is guaranteed because bitvector domains are finite (each
//! counterexample `u*` removes at least `x*` from the candidate space).

use crate::eval::Assignment;
use crate::solver::{ProofTranscript, SatResult, SmtSolver};
use crate::subst::substitute_assignment;
use crate::term::{TermId, TermPool};
use alive_sat::{Budget, SolverStats, Tracer};

/// Result of an exists-forall query.
#[derive(Clone, Debug, PartialEq)]
pub enum EfResult {
    /// A witness for the existential variables such that the matrix holds
    /// for all values of the universal variables.
    Sat(Assignment),
    /// No such witness exists.
    Unsat,
    /// Gave up; the payload says why (iteration limit, budget exhaustion,
    /// cancellation, ...).
    Unknown(String),
}

/// Configuration for [`solve_exists_forall`].
#[derive(Clone, Debug)]
pub struct EfConfig {
    /// Maximum CEGIS refinement iterations.
    pub max_iterations: usize,
    /// Resource budget governing the whole query. The deadline and
    /// cancellation token are shared across every sub-solver of the CEGIS
    /// loop (the deadline is absolute), so `deadline_in(t)` bounds the
    /// entire exists-forall solve, not each SAT call; the conflict limit
    /// applies to each SAT call.
    pub budget: Budget,
    /// Seed the candidate solver with the all-zeros instantiation of the
    /// universal variables before the first guess. Saves one round trip in
    /// the common case; disable to measure the unseeded loop (ablation).
    pub seed_with_zero: bool,
    /// Structured-trace handle cloned into every sub-solver; the disabled
    /// default costs one branch per emission site. Deliberately excluded
    /// from the store's config fingerprint — tracing cannot change
    /// verdicts.
    pub tracer: Tracer,
}

impl Default for EfConfig {
    fn default() -> EfConfig {
        EfConfig {
            max_iterations: 4096,
            budget: Budget::default(),
            seed_with_zero: true,
            tracer: Tracer::disabled(),
        }
    }
}

/// Everything [`solve_exists_forall`] has to say about a query.
#[derive(Clone, Debug)]
pub struct EfOutcome {
    /// The verdict.
    pub result: EfResult,
    /// DRAT transcript on `Unsat` when proof logging was requested.
    pub transcript: Option<ProofTranscript>,
    /// SAT counters summed over every sub-solver.
    pub sat: SolverStats,
    /// CEGIS refinement rounds run (0 for the quantifier-free path).
    pub rounds: usize,
}

/// Formats why a sub-solver answered `Unknown`.
fn unknown_reason(s: &SmtSolver, what: &str) -> String {
    match s.exhaustion() {
        Some(e) => format!("{what}: {e}"),
        None => format!("{what}: resource budget exhausted"),
    }
}

/// A fresh sub-solver under the query's budget and tracer.
fn sub_solver(config: &EfConfig) -> SmtSolver {
    let mut s = SmtSolver::new();
    s.set_budget(config.budget.clone());
    s.set_tracer(config.tracer.clone());
    s
}

/// Solves `∃ exist_vars ∀ univ_vars : matrix` and reports the verdict
/// together with resource statistics.
///
/// `matrix` must be boolean. Variables not listed in either set are
/// treated as existential (they end up in the witness if blasted).
///
/// With `want_proof`, an `Unsat` answer also carries the DRAT transcript
/// refuting the bit-blasted CNF. In the quantifier-free case the transcript
/// refutes the blasted matrix itself, so checking it re-establishes the
/// answer end to end. In the CEGIS case the refuted CNF is the matrix
/// seeded and refined with the universal instantiations discovered during
/// the run (each instantiation appears as axiom clauses): the transcript
/// certifies that the candidate space was genuinely exhausted, though the
/// instantiations themselves are substitutions computed outside the SAT
/// solver.
///
/// One [`Budget`] governs the whole query: its deadline and cancellation
/// token are cloned into the candidate solver, every per-round verifier
/// solver, and polled between CEGIS rounds, so a five-second deadline means
/// five seconds for the query — however many SAT calls that turns out to be.
pub fn solve_exists_forall(
    pool: &mut TermPool,
    exist_vars: &[TermId],
    univ_vars: &[TermId],
    matrix: TermId,
    config: &EfConfig,
    want_proof: bool,
) -> EfOutcome {
    // Each sub-solver's lifetime counters are folded in exactly once.
    let mut sat = SolverStats::default();
    let mut rounds = 0;
    let mut candidates = sub_solver(config);
    let handle = want_proof.then(|| candidates.enable_proof_logging());
    let (result, transcript) = if univ_vars.is_empty() {
        // Quantifier-free: the one candidate query decides.
        candidates.assert_term(pool, matrix);
        match candidates.check() {
            SatResult::Sat => (EfResult::Sat(candidates.model(pool, exist_vars)), None),
            SatResult::Unsat => {
                let transcript = handle.as_ref().map(|h| candidates.proof_transcript(h));
                (EfResult::Unsat, transcript)
            }
            SatResult::Unknown => {
                let reason = unknown_reason(&candidates, "quantifier-free query");
                (EfResult::Unknown(reason), None)
            }
        }
    } else {
        if config.seed_with_zero {
            // Seed with one instantiation (all universals zero) so the first
            // candidate is already filtered.
            let mut zero_env = Assignment::new();
            for &u in univ_vars {
                match pool.sort(u) {
                    crate::value::Sort::Bool => zero_env.set(u, false),
                    crate::value::Sort::BitVec(w) => zero_env.set(u, crate::value::BvVal::zero(w)),
                }
            }
            let seeded = substitute_assignment(pool, matrix, &zero_env);
            candidates.assert_term(pool, seeded);
        } else {
            let t = pool.tru();
            candidates.assert_term(pool, t);
        }
        let not_matrix = pool.not(matrix);
        'cegis: {
            for _ in 0..config.max_iterations {
                rounds += 1;
                let _round = config
                    .tracer
                    .span_with("cegis.round", || rounds.to_string());
                config.tracer.counter("cegis.rounds", 1);
                // The inter-round poll: even if every individual SAT call
                // is cheap, a long refinement loop must still observe the
                // shared deadline and cancellation promptly.
                if let Some(e) = config.budget.check_soft() {
                    let reason = format!("CEGIS round {rounds}: {e}");
                    break 'cegis (EfResult::Unknown(reason), None);
                }
                match candidates.check() {
                    SatResult::Unsat => {
                        let transcript = handle.as_ref().map(|h| candidates.proof_transcript(h));
                        break 'cegis (EfResult::Unsat, transcript);
                    }
                    SatResult::Unknown => {
                        let reason = unknown_reason(&candidates, "candidate search");
                        break 'cegis (EfResult::Unknown(reason), None);
                    }
                    SatResult::Sat => {}
                }
                let x_star = candidates.model(pool, exist_vars);

                // Verify: does some u break the candidate?  ∃u: ¬matrix(x*, u)
                let check_term = substitute_assignment(pool, not_matrix, &x_star);
                let mut verifier = sub_solver(config);
                verifier.assert_term(pool, check_term);
                let verdict = verifier.check();
                sat += verifier.sat_stats();
                match verdict {
                    SatResult::Unsat => break 'cegis (EfResult::Sat(x_star), None),
                    SatResult::Unknown => {
                        let reason = unknown_reason(&verifier, "counterexample search");
                        break 'cegis (EfResult::Unknown(reason), None);
                    }
                    SatResult::Sat => {
                        let u_star = verifier.model(pool, univ_vars);
                        let refined = substitute_assignment(pool, matrix, &u_star);
                        candidates.assert_term(pool, refined);
                    }
                }
            }
            let reason = format!("CEGIS iteration limit of {} reached", config.max_iterations);
            (EfResult::Unknown(reason), None)
        }
    };
    // Every path ends here, so the candidate solver's counters are folded
    // in exactly once.
    sat += candidates.sat_stats();
    EfOutcome {
        result,
        transcript,
        sat,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{BvVal, Sort};

    /// Solves with proof logging on, returning the verdict and transcript.
    fn solve_with_proof(
        p: &mut TermPool,
        exist_vars: &[TermId],
        univ_vars: &[TermId],
        matrix: TermId,
    ) -> (EfResult, Option<ProofTranscript>) {
        let outcome =
            solve_exists_forall(p, exist_vars, univ_vars, matrix, &EfConfig::default(), true);
        (outcome.result, outcome.transcript)
    }

    #[test]
    fn qf_case_delegates_to_plain_solve() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(4));
        let seven = p.bv(4, 7);
        let eq = p.eq(x, seven);
        match solve_exists_forall(&mut p, &[x], &[], eq, &EfConfig::default(), false).result {
            EfResult::Sat(m) => assert_eq!(m.get(x).unwrap().as_bv(), BvVal::new(4, 7)),
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn exists_x_forall_u_x_and_u_commutative_identity() {
        // ∃x ∀u: x & u == u  has the witness x = 1111.
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(4));
        let u = p.var("u", Sort::BitVec(4));
        let conj = p.bv_and(x, u);
        let matrix = p.eq(conj, u);
        match solve_exists_forall(&mut p, &[x], &[u], matrix, &EfConfig::default(), false).result {
            EfResult::Sat(m) => {
                assert_eq!(m.get(x).unwrap().as_bv(), BvVal::ones(4));
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn exists_x_forall_u_x_equals_u_is_unsat() {
        // No x equals every u (width 4 has 16 distinct values).
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(4));
        let u = p.var("u", Sort::BitVec(4));
        let matrix = p.eq(x, u);
        assert_eq!(
            solve_exists_forall(&mut p, &[x], &[u], matrix, &EfConfig::default(), false).result,
            EfResult::Unsat
        );
    }

    #[test]
    fn forall_u_tautology_with_no_existentials() {
        // ∀u: u | !u == ones — trivially true, no existentials to find.
        let mut p = TermPool::new();
        let u = p.var("u", Sort::BitVec(4));
        let nu = p.bv_not(u);
        let or = p.bv_or(u, nu);
        let ones = p.bv(4, 0xF);
        let matrix = p.eq(or, ones);
        match solve_exists_forall(&mut p, &[], &[u], matrix, &EfConfig::default(), false).result {
            EfResult::Sat(_) => {}
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn qf_unsat_comes_with_transcript() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(4));
        let one = p.bv(4, 1);
        let inc = p.bv_add(x, one);
        let matrix = p.eq(inc, x); // x + 1 == x is unsat
        let (result, proof) = solve_with_proof(&mut p, &[x], &[], matrix);
        assert_eq!(result, EfResult::Unsat);
        let transcript = proof.expect("unsat must carry a transcript");
        assert!(transcript.num_vars > 0);
        assert!(transcript
            .events
            .iter()
            .any(|e| matches!(e, crate::ProofEvent::Learned(c) if c.is_empty())));
    }

    #[test]
    fn ring_folded_unsat_still_comes_with_transcript() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(4));
        let y = p.var("y", Sort::BitVec(4));
        let one = p.bv(4, 1);
        let xy = p.bv_mul(x, y);
        let inc = p.bv_add(xy, one);
        let matrix = p.eq(inc, xy); // x·y + 1 == x·y folds to false
        assert_eq!(p.as_bool_const(matrix), Some(false));
        let (result, proof) = solve_with_proof(&mut p, &[x, y], &[], matrix);
        assert_eq!(result, EfResult::Unsat);
        let transcript = proof.expect("unsat must carry a transcript");
        assert!(transcript
            .events
            .iter()
            .any(|e| matches!(e, crate::ProofEvent::Learned(c) if c.is_empty())));
    }

    #[test]
    fn cegis_unsat_comes_with_transcript() {
        // ∃x ∀u: x == u is unsat; the refutation covers the refined CNF.
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(3));
        let u = p.var("u", Sort::BitVec(3));
        let matrix = p.eq(x, u);
        let (result, proof) = solve_with_proof(&mut p, &[x], &[u], matrix);
        assert_eq!(result, EfResult::Unsat);
        let transcript = proof.expect("unsat must carry a transcript");
        assert!(transcript
            .events
            .iter()
            .any(|e| matches!(e, crate::ProofEvent::Learned(c) if c.is_empty())));
    }

    #[test]
    fn sat_answers_have_no_transcript() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(4));
        let seven = p.bv(4, 7);
        let matrix = p.eq(x, seven);
        let (result, proof) = solve_with_proof(&mut p, &[x], &[], matrix);
        assert!(matches!(result, EfResult::Sat(_)));
        assert!(proof.is_none());
    }

    #[test]
    fn trivially_false_matrix_still_yields_refutation() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(4));
        let matrix = p.fls();
        let (result, proof) = solve_with_proof(&mut p, &[x], &[], matrix);
        assert_eq!(result, EfResult::Unsat);
        let transcript = proof.expect("unsat must carry a transcript");
        assert!(transcript
            .events
            .iter()
            .any(|e| matches!(e, crate::ProofEvent::Learned(c) if c.is_empty())));
    }

    #[test]
    fn iteration_budget_yields_unknown() {
        // ∃x ∀u: (x ^ u) <u 8  is false at width 4, but give the loop only
        // one iteration so it cannot finish refuting all candidates.
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(4));
        let u = p.var("u", Sort::BitVec(4));
        let xu = p.bv_xor(x, u);
        let eight = p.bv(4, 8);
        let matrix = p.bv_ult(xu, eight);
        let config = EfConfig {
            max_iterations: 1,
            ..EfConfig::default()
        };
        match solve_exists_forall(&mut p, &[x], &[u], matrix, &config, false).result {
            EfResult::Unknown(reason) => {
                assert!(
                    reason.contains("iteration limit"),
                    "reason should name the iteration limit, got: {reason}"
                );
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_stops_the_whole_query() {
        // The deadline is shared across the CEGIS loop: an already-expired
        // deadline stops the query before the first round, with a reason
        // naming the wall clock.
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(8));
        let u = p.var("u", Sort::BitVec(8));
        let xu = p.bv_xor(x, u);
        let c = p.bv(8, 8);
        let matrix = p.bv_ult(xu, c);
        let config = EfConfig {
            budget: alive_sat::Budget::default().deadline_in(std::time::Duration::ZERO),
            ..EfConfig::default()
        };
        match solve_exists_forall(&mut p, &[x], &[u], matrix, &config, false).result {
            EfResult::Unknown(reason) => {
                assert!(
                    reason.contains("deadline"),
                    "reason should name the deadline, got: {reason}"
                );
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_stops_the_query_with_reason() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(8));
        let u = p.var("u", Sort::BitVec(8));
        let matrix = p.eq(x, u);
        let token = alive_sat::CancelToken::new();
        token.cancel();
        let config = EfConfig {
            budget: alive_sat::Budget::default().with_cancel(token),
            ..EfConfig::default()
        };
        match solve_exists_forall(&mut p, &[x], &[u], matrix, &config, false).result {
            EfResult::Unknown(reason) => {
                assert!(
                    reason.contains("cancelled"),
                    "reason should say cancelled, got: {reason}"
                );
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn full_outcome_reports_rounds_and_conflicts() {
        // ∃x ∀u: x == u is unsat at width 3 and needs several CEGIS rounds.
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(3));
        let u = p.var("u", Sort::BitVec(3));
        let matrix = p.eq(x, u);
        let outcome = solve_exists_forall(&mut p, &[x], &[u], matrix, &EfConfig::default(), false);
        assert_eq!(outcome.result, EfResult::Unsat);
        assert!(outcome.rounds > 0, "CEGIS must have iterated");
    }
}
