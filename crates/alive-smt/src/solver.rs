//! The user-facing SMT solver: assert terms, check satisfiability, read
//! models. Incremental: terms may be asserted between `check` calls, and
//! each assertion is bit-blasted once, under the installed budget.

use crate::blast::Blaster;
use crate::eval::Assignment;
use crate::term::{TermId, TermPool};
use crate::value::{Sort, Value};
use alive_sat::{
    Budget, Exhaustion, ProofEvent, SharedDratRecorder, SolveResult, Solver, SolverStats, Tracer,
};

/// Result of an SMT `check`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// Satisfiable; a model is available.
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// Resource limit reached.
    Unknown,
}

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
/// use alive_smt::{SmtSolver, TermPool, SatResult, Sort, BvVal};
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
/// assert_eq!(solver.check(), SatResult::Sat);
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
    /// Per-call exhaustion that did not reach the SAT solver (an injected
    /// hang); cleared at each check.
    #[cfg(feature = "fault-injection")]
    call_exhausted: Option<Exhaustion>,
    #[cfg(feature = "fault-injection")]
    injected: bool,
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

    /// The currently installed budget.
    pub fn budget(&self) -> &Budget {
        self.sat.budget()
    }

    /// Cumulative statistics of the underlying SAT solver.
    pub fn sat_stats(&self) -> SolverStats {
        self.sat.stats()
    }

    /// Why the most recent `check` returned
    /// [`SatResult::Unknown`] (`None` after a decisive answer).
    pub fn exhaustion(&self) -> Option<Exhaustion> {
        #[cfg(feature = "fault-injection")]
        {
            if self.injected {
                return Some(Exhaustion::Injected);
            }
            if let Some(e) = self.blast_exhausted.or(self.call_exhausted) {
                return Some(e);
            }
        }
        self.blast_exhausted.or_else(|| self.sat.exhaustion())
    }

    /// Turns on DRAT-style proof logging in the underlying SAT solver and
    /// returns a handle to the transcript.
    ///
    /// Call before asserting anything — clauses blasted earlier are not
    /// retroactively recorded. Use [`SmtSolver::proof_transcript`] with the
    /// returned handle to extract a checkable transcript after an `Unsat`
    /// answer.
    pub fn enable_proof_logging(&mut self) -> SharedDratRecorder {
        let handle = SharedDratRecorder::new();
        self.sat.set_proof_logger(Some(Box::new(handle.clone())));
        handle
    }

    /// Extracts the proof transcript recorded by `handle` after a `check`
    /// that returned [`SatResult::Unsat`].
    ///
    /// The transcript covers the bit-blasted CNF of everything asserted so
    /// far. A constant-false assertion never reaches the SAT solver, so in
    /// that case the transcript is completed with an explicit empty axiom
    /// (the formula contains `false`) and an empty learned clause.
    pub fn proof_transcript(&self, handle: &SharedDratRecorder) -> ProofTranscript {
        let mut events = handle.snapshot();
        if self.trivially_false {
            events.push(ProofEvent::Original(Vec::new()));
            events.push(ProofEvent::Learned(Vec::new()));
        }
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
    /// [`SatResult::Unknown`] (the CNF would otherwise be silently missing
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
        if !self.tracer.enabled() {
            match self.blaster.try_blast_bool(pool, &mut self.sat, t) {
                Ok(l) => {
                    self.sat.add_clause([l]);
                }
                Err(e) => self.blast_exhausted = Some(e),
            }
            return;
        }
        let tracer = self.tracer.clone();
        let _span = tracer.span("blast");
        let nodes_before = self.blaster.nodes_encoded();
        let gates_before = self.blaster.gates_by_op().clone();
        let hits_before = self.blaster.gate_hits();
        match self.blaster.try_blast_bool(pool, &mut self.sat, t) {
            Ok(l) => {
                self.sat.add_clause([l]);
            }
            Err(e) => self.blast_exhausted = Some(e),
        }
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
    pub fn check(&mut self) -> SatResult {
        self.clear_call_state();
        if self.trivially_false {
            return SatResult::Unsat;
        }
        if self.blast_exhausted.is_some() {
            return SatResult::Unknown;
        }
        #[cfg(feature = "fault-injection")]
        if let Some(r) = self.fire_fault() {
            return r;
        }
        Self::lift(self.sat.solve())
    }

    fn lift(r: SolveResult) -> SatResult {
        match r {
            SolveResult::Sat => SatResult::Sat,
            SolveResult::Unsat => SatResult::Unsat,
            SolveResult::Unknown => SatResult::Unknown,
        }
    }

    fn clear_call_state(&mut self) {
        #[cfg(feature = "fault-injection")]
        {
            self.call_exhausted = None;
            self.injected = false;
        }
    }

    /// Consults the installed [`alive_sat::fault::FailurePlan`] at the SMT
    /// query site. `Some` short-circuits the check; `None` proceeds (with
    /// `CorruptModel` having already run the solve and flipped the model).
    #[cfg(feature = "fault-injection")]
    fn fire_fault(&mut self) -> Option<SatResult> {
        use alive_sat::fault::{self, FaultKind, FaultSite};
        match fault::fire(FaultSite::Smt)? {
            FaultKind::ForceUnknown => {
                self.injected = true;
                Some(SatResult::Unknown)
            }
            FaultKind::Panic => panic!("injected fault: panic in alive_smt::SmtSolver::check"),
            FaultKind::Hang => loop {
                if let Some(e) = self.sat.budget().check_soft() {
                    self.call_exhausted = Some(e);
                    return Some(SatResult::Unknown);
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            },
            FaultKind::HangHard => loop {
                // Ignores budget and cancellation alike; only a watchdog
                // detach (or process exit) ends this thread.
                std::thread::sleep(std::time::Duration::from_millis(1));
            },
            FaultKind::CorruptModel => {
                let r = Self::lift(self.sat.solve());
                if r == SatResult::Sat {
                    self.sat.corrupt_model();
                }
                Some(r)
            }
            // I/O fault kinds model disk/socket failures; an SMT check has
            // no I/O to fail, so they are inert here.
            FaultKind::IoError | FaultKind::TornWrite => None,
        }
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
        assert_eq!(s.check(), SatResult::Sat);
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
        assert_eq!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn trivially_false_assertion() {
        let mut p = TermPool::new();
        let f = p.fls();
        let mut s = SmtSolver::new();
        s.assert_term(&p, f);
        assert_eq!(s.check(), SatResult::Unsat);
    }
}
