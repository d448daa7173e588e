//! A from-scratch SMT stack for quantifier-free (and singly-quantified)
//! bitvector formulas.
//!
//! This crate replaces the Z3 dependency of the original Alive (PLDI 2015)
//! implementation. It provides:
//!
//! * [`TermPool`] — hash-consed boolean/bitvector terms with simplifying
//!   constructors,
//! * [`BvVal`] — concrete bitvector values with SMT-LIB reference semantics,
//! * [`eval`] — a reference evaluator (ground truth for testing and for
//!   counterexample value reporting),
//! * [`Blaster`] — Tseitin bit-blasting to the [`alive_sat`] CDCL solver,
//! * [`SmtSolver`] — an incremental assert/check/model facade, and
//! * [`solve_exists_forall`] — a CEGIS loop for the `∃∀` queries that
//!   arise from `undef` values in the source template of an Alive
//!   transformation (paper §3.1.2).
//!
//! # Examples
//!
//! Prove that `x + x == 2*x` at width 8 by refutation:
//!
//! ```
//! use alive_smt::{TermPool, SmtSolver, SolveResult, Sort};
//!
//! let mut pool = TermPool::new();
//! let x = pool.var("x", Sort::BitVec(8));
//! let two = pool.bv(8, 2);
//! let lhs = pool.bv_add(x, x);
//! let rhs = pool.bv_mul(two, x);
//! let neq = pool.ne(lhs, rhs);
//!
//! let mut solver = SmtSolver::new();
//! solver.assert_term(&pool, neq);
//! assert_eq!(solver.check(), SolveResult::Unsat); // no counterexample
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod blast;
mod eval;
mod qe;
mod solver;
mod subst;
mod term;
mod value;

pub use alive_sat::{
    Budget, CancelToken, Exhaustion, ProofEvent, SolveResult, SolverStats, Tracer,
};
pub use blast::{Blasted, Blaster};
pub use eval::{eval, Assignment, EvalError};
pub use qe::{solve_exists_forall, EfConfig, EfOutcome, EfResult, EfStop};
pub use solver::{ProofTranscript, SmtSolver};
pub use subst::{substitute, substitute_assignment, substitute_with};
pub use term::{BvDef, BvOp, Fixed, GuardedRewrite, Law, Op, Shape, Term, TermId, TermPool};
pub use value::{BvVal, Sort, Value};
