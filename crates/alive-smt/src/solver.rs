//! The user-facing SMT solver: assert terms, check satisfiability, read
//! models. Incremental: terms may be asserted between `check` calls, and
//! each assertion is bit-blasted once, under the installed budget.

use crate::blast::Blaster;
use crate::eval::Assignment;
use crate::term::{TermId, TermPool};
use crate::value::{Sort, Value};
use alive_sat::{Budget, Exhaustion, ProofEvent, SolveResult, Solver, SolverStats, Tracer};

/// The DRAT transcript of one solver's run over its bit-blasted CNF.
///
/// Produced by [`SmtSolver::proof_transcript`]; the `alive-proof` crate's
/// checker consumes the events after a trivial conversion (the two crates
/// intentionally share no types).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProofTranscript {
    /// Number of SAT variables in the blasted formula.
    pub num_vars: usize,
    /// Chronological original/learned/deleted clause events.
    pub events: Vec<ProofEvent>,
}

/// An incremental SMT solver for QF_BV formulas.
///
/// The solver does not own the [`TermPool`]; the pool is passed to each
/// call so several solvers can share one pool (the CEGIS loop relies on
/// this).
///
/// # Examples
///
/// ```
/// use alive_smt::{SmtSolver, TermPool, SolveResult, Sort, BvVal};
///
/// let mut pool = TermPool::new();
/// let x = pool.var("x", Sort::BitVec(8));
/// let c5 = pool.bv(8, 5);
/// let c3 = pool.bv(8, 3);
/// let sum = pool.bv_add(x, c3);
/// let eq = pool.eq(sum, c5);
///
/// let mut solver = SmtSolver::new();
/// solver.assert_term(&pool, eq);
/// assert_eq!(solver.check(), SolveResult::Sat);
/// assert_eq!(solver.model_bv(&pool, x), BvVal::new(8, 2));
/// ```
#[derive(Debug, Default)]
pub struct SmtSolver {
    sat: Solver,
    blaster: Blaster,
    trivially_false: bool,
    /// Set when bit-blasting itself was aborted by the budget. The CNF is
    /// then missing an assertion, so every later `check` must answer
    /// `Unknown` rather than reason about the truncated formula.
    blast_exhausted: Option<Exhaustion>,
    /// Structured-trace handle; disabled (one branch per site) by default.
    tracer: Tracer,
}

impl SmtSolver {
    /// Creates an empty solver.
    pub fn new() -> SmtSolver {
        SmtSolver::default()
    }

    /// Installs a structured-trace handle on this solver and its
    /// underlying SAT solver. While enabled, `assert_term` wraps
    /// bit-blasting in a `blast` span and emits `blast.nodes` /
    /// `blast.gates` (total and per op kind) / `blast.gate_hits` counter
    /// deltas; the SAT
    /// layer adds `sat.solve` spans and CDCL counters.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.sat.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Installs a resource [`Budget`] (deadline, conflict limit,
    /// cancellation). It governs bit-blasting during `assert_term` as
    /// well as every SAT search.
    pub fn set_budget(&mut self, budget: Budget) {
        self.sat.set_budget(budget);
    }

    /// Cumulative statistics of the underlying SAT solver.
    pub fn sat_stats(&self) -> SolverStats {
        self.sat.stats()
    }

    /// Why the most recent `check` returned
    /// [`SolveResult::Unknown`] (`None` after a decisive answer).
    pub fn exhaustion(&self) -> Option<Exhaustion> {
        self.blast_exhausted.or_else(|| self.sat.exhaustion())
    }

    /// Turns on DRAT-style proof logging in the underlying SAT solver.
    ///
    /// Call before asserting anything — clauses blasted earlier would go
    /// unrecorded. Use [`SmtSolver::proof_transcript`] to extract a
    /// checkable transcript after an `Unsat` answer.
    pub fn enable_proof_logging(&mut self) {
        self.sat.enable_proof_log();
    }

    /// Extracts the proof transcript after a `check` that returned
    /// [`SolveResult::Unsat`].
    ///
    /// The transcript covers the bit-blasted CNF of everything asserted so
    /// far. A constant-false assertion never reaches the SAT solver, so in
    /// that case the transcript is completed with an explicit empty axiom
    /// (the formula contains `false`) and an empty learned clause. Debug
    /// builds assert that the transcript holds that empty learned clause:
    /// it is what makes the transcript a refutation.
    pub fn proof_transcript(&self) -> ProofTranscript {
        let mut events = self.sat.proof().to_vec();
        if self.trivially_false {
            events.push(ProofEvent::Original(Vec::new()));
            events.push(ProofEvent::Learned(Vec::new()));
        }
        debug_assert!(
            events.iter().any(ProofEvent::is_refutation),
            "proof transcript without an empty learned clause: not an Unsat refutation"
        );
        ProofTranscript {
            num_vars: self.sat.num_vars(),
            events,
        }
    }

    /// Asserts a boolean term.
    ///
    /// Blasting polls the installed budget; if the deadline passes or the
    /// cancellation token is raised mid-blast the assertion is dropped and
    /// the solver is poisoned — every later `check` answers
    /// [`SolveResult::Unknown`] (the CNF would otherwise be silently missing
    /// a conjunct).
    ///
    /// # Panics
    ///
    /// Panics if the term is not boolean.
    pub fn assert_term(&mut self, pool: &TermPool, t: TermId) {
        assert_eq!(pool.sort(t), Sort::Bool, "assertion must be boolean");
        if let Some(b) = pool.as_bool_const(t) {
            if !b {
                self.trivially_false = true;
            }
            return;
        }
        let tracer = self.tracer.clone();
        let _span = tracer.span("blast");
        // Counter baselines, taken only when a tracer will read them.
        let before = tracer.enabled().then(|| {
            (
                self.blaster.nodes_encoded(),
                self.blaster.gates_by_op().clone(),
                self.blaster.gate_hits(),
            )
        });
        match self.blaster.try_blast_bool(pool, &mut self.sat, t) {
            Ok(l) => {
                self.sat.add_clause([l]);
            }
            Err(e) => self.blast_exhausted = Some(e),
        }
        let Some((nodes_before, gates_before, hits_before)) = before else {
            return;
        };
        tracer.counter("blast.nodes", self.blaster.nodes_encoded() - nodes_before);
        let mut total = 0u64;
        for (&kind, &gates) in self.blaster.gates_by_op() {
            let delta = gates - gates_before.get(kind).copied().unwrap_or(0);
            total += delta;
            tracer.counter_with("blast.gates", || kind.to_string(), delta);
        }
        tracer.counter("blast.gates", total);
        tracer.counter("blast.gate_hits", self.blaster.gate_hits() - hits_before);
    }

    /// Checks satisfiability of the asserted formula.
    pub fn check(&mut self) -> SolveResult {
        if self.trivially_false {
            return SolveResult::Unsat;
        }
        if self.blast_exhausted.is_some() {
            return SolveResult::Unknown;
        }
        self.sat.solve()
    }

    /// Reads a bitvector variable (or any blasted bv term) from the model.
    ///
    /// Terms that never reached the SAT solver are unconstrained; they
    /// default to zero, which is a legitimate completion of the model.
    pub fn model_bv(&self, pool: &TermPool, t: TermId) -> crate::value::BvVal {
        let w = pool.width(t);
        self.blaster
            .model_bv(&self.sat, t, w)
            .unwrap_or_else(|| crate::value::BvVal::zero(w))
    }

    /// Reads a boolean term from the model (unconstrained defaults to false).
    pub fn model_bool(&self, pool: &TermPool, t: TermId) -> bool {
        debug_assert_eq!(pool.sort(t), Sort::Bool);
        self.blaster.model_bool(&self.sat, t).unwrap_or(false)
    }

    /// Builds an [`Assignment`] for the given variables from the model.
    pub fn model(&self, pool: &TermPool, vars: &[TermId]) -> Assignment {
        let mut a = Assignment::new();
        for &v in vars {
            let value: Value = match pool.sort(v) {
                Sort::Bool => Value::Bool(self.model_bool(pool, v)),
                Sort::BitVec(_) => Value::Bv(self.model_bv(pool, v)),
            };
            a.set(v, value);
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::BvVal;

    #[test]
    fn simple_equation() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(8));
        let c = p.bv(8, 100);
        let two = p.bv(8, 2);
        let dbl = p.bv_mul(x, two);
        let eq = p.eq(dbl, c);
        let mut s = SmtSolver::new();
        s.assert_term(&p, eq);
        assert_eq!(s.check(), SolveResult::Sat);
        let v = s.model_bv(&p, x);
        assert_eq!(v.mul(BvVal::new(8, 2)), BvVal::new(8, 100));
    }

    #[test]
    fn unsat_equation() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(8));
        // x + 1 == x is unsat.
        let one = p.bv(8, 1);
        let inc = p.bv_add(x, one);
        let eq = p.eq(inc, x);
        let mut s = SmtSolver::new();
        s.assert_term(&p, eq);
        assert_eq!(s.check(), SolveResult::Unsat);
    }

    #[test]
    fn trivially_false_assertion() {
        let mut p = TermPool::new();
        let f = p.fls();
        let mut s = SmtSolver::new();
        s.assert_term(&p, f);
        assert_eq!(s.check(), SolveResult::Unsat);
    }
}
