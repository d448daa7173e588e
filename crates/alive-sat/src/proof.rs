//! DRAT-style proof events.
//!
//! Once [`Solver::enable_proof_log`](crate::Solver::enable_proof_log) has
//! turned the log on, the solver records one [`ProofEvent`] per original
//! clause, learned clause, and deleted clause, in chronological order, and
//! [`Solver::proof`](crate::Solver::proof) reads them back. Every learned
//! clause is a reverse unit propagation (RUP) consequence of the clauses
//! recorded before it, so a transcript ending in an empty learned clause is
//! a checkable refutation of the conjunction of the original clauses. The
//! `alive-proof` crate re-checks such transcripts with an independent
//! propagation engine that shares no code with this solver.
//!
//! Literals are recorded in DIMACS convention — `±(var_index + 1)` — so a
//! transcript is meaningful without access to the solver's internal literal
//! encoding. Clause literal order is not significant: database reduction may
//! record a deleted clause with its literals permuted by watched-literal
//! bookkeeping, so checkers must match deletions up to permutation.
//!
//! Logging is designed to cost nothing when disabled: every hook first
//! branches on an `Option` that is `None` by default, and no literal
//! conversion or allocation happens unless the log is on.

/// One step of a solver run, in DIMACS literals.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProofEvent {
    /// A clause of the original formula, recorded as `add_clause` received it
    /// (sorted and deduplicated, but not otherwise simplified — tautologies
    /// and clauses satisfied at level 0 are still recorded, since they are
    /// part of the formula whose unsatisfiability a refutation claims).
    Original(Vec<i32>),
    /// A clause learned by conflict analysis, RUP with respect to all
    /// preceding non-deleted clauses. An empty learned clause concludes a
    /// refutation of the original formula.
    Learned(Vec<i32>),
    /// A learned clause removed by clause-database reduction. Checkers may
    /// drop it from their active set; literal order is unspecified.
    Deleted(Vec<i32>),
}

impl ProofEvent {
    /// The clause payload of this event, whatever its kind.
    pub fn lits(&self) -> &[i32] {
        match self {
            ProofEvent::Original(c) | ProofEvent::Learned(c) | ProofEvent::Deleted(c) => c,
        }
    }

    /// `true` for the empty learned clause that concludes a refutation.
    pub fn is_refutation(&self) -> bool {
        matches!(self, ProofEvent::Learned(c) if c.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_payloads_and_refutation() {
        let events = [
            ProofEvent::Original(vec![1, 2]),
            ProofEvent::Learned(vec![1]),
            ProofEvent::Deleted(vec![1, 2]),
            ProofEvent::Learned(vec![]),
        ];
        assert_eq!(events[0].lits(), &[1, 2]);
        assert_eq!(events[2].lits(), &[1, 2]);
        let refutations: Vec<bool> = events.iter().map(ProofEvent::is_refutation).collect();
        assert_eq!(refutations, [false, false, false, true]);
    }
}
